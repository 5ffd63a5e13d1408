#!/usr/bin/env python3
"""Correctness checks on a benchmark driver record.

check_record() returns a list of failures (empty = correct).  It checks
the raw numbers the driver reports, not its verdicts:

  * every workload: at least one op attempted, none failed, and every
    timed pass reproduced the first pass's virtual-time digest;
  * fabric workloads: conservation, attempts == delivered + drops +
    rx_overflow + in_flight, and the per-reason drop breakdown sums to
    dropped_total (fabric_permutation additionally: zero drops, every
    packet received, and in the traced run identical ShardEngine results
    at 1 and N workers);
  * admission_spike: every job admitted and gone, VNI acquisitions ==
    releases == jobs, and the registry's free count back at its start;
  * tenant_churn_failover: every op verified byte for byte, no payload
    mismatch, no isolation probe delivered, churn fully torn down;
  * the metric names match BENCHMARK.json exactly (end_to_end for an
    untraced run, per_layer for a traced one), each a finite number, and
    end-to-end values never 0.

    python3 perfbench/check.py <record.json> [BENCHMARK.json]
"""
import json
import math
import sys


def _eq(errors, what, a, b):
    if a != b:
        errors.append(f"{what}: {a} != {b}")


def _check_conservation(errors, label, c, zero_drops):
    if c is None:
        errors.append(f"{label}: missing")
        return
    lhs = c["attempts"]
    rhs = c["delivered"] + c["dropped_total"] + c["rx_overflow"] + c["in_flight"]
    _eq(errors, f"{label}: attempts == delivered + drops + rx_overflow + in_flight", lhs, rhs)
    _eq(errors, f"{label}: per-reason breakdown == dropped_total",
        c["breakdown_sum"], c["dropped_total"])
    if zero_drops:
        _eq(errors, f"{label}: dropped_total", c["dropped_total"], 0)
        _eq(errors, f"{label}: rx_overflow", c["rx_overflow"], 0)


def _check_admission(errors, ck):
    a = ck.get("admission")
    if a is None:
        errors.append("admission: missing")
        return
    for key in ("submitted", "admitted", "acquisitions", "releases"):
        _eq(errors, f"admission: {key} == jobs", a[key], a["jobs"])
    _eq(errors, "admission: drained", a["drained"], 1)
    _eq(errors, "admission: pods_left", a["pods_left"], 0)
    _eq(errors, "admission: allocated VNIs at end", a["allocated_end"], 0)
    _eq(errors, "admission: registry free count end == start",
        a["free_end"], a["free_start"])


def _check_permutation(errors, ck, trace):
    c = ck.get("conservation")
    _check_conservation(errors, "conservation", c, zero_drops=True)
    if c is not None:
        _eq(errors, "permutation: received == attempts", c["received"], c["attempts"])
        _eq(errors, "permutation: post_failed", c["post_failed"], 0)
    if trace:
        e = ck.get("engine")
        if e is None:
            errors.append("engine: missing")
            return
        _eq(errors, "engine: t1 digest == tN digest", e["digest_t1_eq_tn"], 1)
        for key in ("attempts", "delivered", "dropped"):
            _eq(errors, f"engine: {key} t1 == tN", e[f"{key}_t1"], e[f"{key}_tn"])
        _check_conservation(errors, "engine t1 conservation",
                            ck.get("engine_t1_conservation"), zero_drops=True)
        _check_conservation(errors, "engine tN conservation",
                            ck.get("engine_tn_conservation"), zero_drops=True)


def _check_churn(errors, ck):
    _check_conservation(errors, "conservation", ck.get("conservation"), zero_drops=False)
    p, iso, ch = ck.get("payload"), ck.get("isolation"), ck.get("churn")
    if p is None or iso is None or ch is None:
        errors.append("churn: payload/isolation/churn checks missing")
        return
    _eq(errors, "payload: mismatches", p["mismatches"], 0)
    _eq(errors, "payload: ops completed and verified == ops", p["ok"], p["ops"])
    _eq(errors, "isolation: cross-tenant deliveries", iso["delivered"], 0)
    _eq(errors, "isolation: probes denied at open_endpoint or the edge",
        iso["denied_open"] + iso["denied_edge"], iso["probes"])
    _eq(errors, "isolation: NIC-side VNI mismatches", iso["rx_vni_mismatch"], 0)
    if iso["probes"] < 1:
        errors.append("isolation: no probes ran")
    _eq(errors, "churn: jobs_left", ch["jobs_left"], 0)
    _eq(errors, "churn: pods_left", ch["pods_left"], 0)
    _eq(errors, "churn: acquisitions == tenants", ch["acquisitions"], ch["tenants"])
    _eq(errors, "churn: releases == tenants", ch["releases"], ch["tenants"])
    _eq(errors, "churn: failures outstanding", ch["failures_outstanding"], 0)
    if ch["repairs"] < 1:
        errors.append("churn: no fabric-manager repair ran")


def check_metrics(errors, metrics, bench, trace):
    """`metrics` is {name: value}: exactly BENCHMARK.json's names."""
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    for name in wanted:
        if name not in metrics:
            errors.append(f"metric {name} missing from the result")
    for name, value in metrics.items():
        if name not in wanted:
            errors.append(f"metric {name} is not in BENCHMARK.json")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} is not a finite number: {value!r}")
        elif not trace and value <= 0:
            errors.append(f"metric {name} is {value}, end-to-end metrics are never 0")


def check_record(record, bench, trace=None):
    errors = []
    trace = bool(record.get("trace")) if trace is None else trace
    workload = record.get("workload")
    if workload not in [w["name"] for w in bench["workloads"]]:
        return [f"unknown workload {workload!r}"]
    if record.get("attempted", 0) < 1:
        errors.append("nothing attempted")
    _eq(errors, "failed ops", record.get("failed"), 0)
    ck = record.get("checks", {})
    det = ck.get("determinism", {})
    _eq(errors, "determinism: every pass reproduced the virtual-time digest",
        det.get("digests_equal"), 1)
    try:
        if workload == "admission_spike":
            _check_admission(errors, ck)
        elif workload == "fabric_permutation":
            _check_permutation(errors, ck, trace)
        else:
            _check_churn(errors, ck)
    except KeyError as e:
        errors.append(f"check field {e} missing from the record")
    if not trace:
        check_metrics(errors, record.get("metrics", {}), bench, trace=False)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        record = json.load(f)
    with open(argv[2] if len(argv) > 2 else "BENCHMARK.json") as f:
        bench = json.load(f)
    errors = check_record(record, bench)
    for e in errors:
        print(f"FAIL {e}")
    print("correct" if not errors else f"{len(errors)} check(s) failed")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
