#!/usr/bin/env python3
"""Self-test of the benchmark's result checker and span summarizer.

    python3 perfbench/selftest.py

Needs no build: it checks recorded driver outputs (fixtures/, one real
untraced record per workload plus a traced fabric_permutation record) and
doctored copies of them.  The checker must accept the real records and
reject each doctored one: conservation broken, an isolation probe
delivered, a payload mismatch, a metric name that BENCHMARK.json lacks or
a BENCHMARK.json metric left out.
"""
import copy
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import check  # noqa: E402
import summarize  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def fixture(name):
    with open(os.path.join(HERE, "fixtures", name + ".json")) as f:
        return json.load(f)


class CheckerAcceptsRealRecords(unittest.TestCase):
    def test_each_workload(self):
        for w in BENCH["workloads"]:
            rec = fixture(w["name"])
            self.assertEqual(check.check_record(rec, BENCH), [], w["name"])

    def test_traced_permutation_with_engine(self):
        rec = fixture("fabric_permutation.traced")
        self.assertEqual(check.check_record(rec, BENCH, trace=True), [])


class CheckerRejectsDoctoredRecords(unittest.TestCase):
    def rejects(self, name, doctor, trace=None):
        rec = copy.deepcopy(fixture(name))
        doctor(rec)
        errors = check.check_record(rec, BENCH, trace=trace)
        self.assertTrue(errors, f"{name}: doctored record was accepted")
        return errors

    def test_conservation_broken(self):
        def lose_packet(r):
            r["checks"]["conservation"]["delivered"] -= 1
        self.rejects("fabric_permutation", lose_packet)
        self.rejects("tenant_churn_failover", lose_packet)

    def test_drop_breakdown_does_not_sum(self):
        def uncounted_drop(r):
            c = r["checks"]["conservation"]
            c["dropped_total"] += 1
            c["delivered"] -= 1
        self.rejects("tenant_churn_failover", uncounted_drop)

    def test_permutation_drop(self):
        def drop(r):
            c = r["checks"]["conservation"]
            c["delivered"] -= 1
            c["dropped_total"] += 1
            c["breakdown_sum"] += 1
        self.rejects("fabric_permutation", drop)

    def test_isolation_probe_delivered(self):
        def breach(r):
            iso = r["checks"]["isolation"]
            iso["denied_edge"] -= 1
            iso["delivered"] += 1
        self.rejects("tenant_churn_failover", breach)

    def test_payload_mismatch(self):
        def corrupt(r):
            p = r["checks"]["payload"]
            p["mismatches"] += 1
            p["ok"] -= 1
        self.rejects("tenant_churn_failover", corrupt)

    def test_failed_op(self):
        self.rejects("admission_spike", lambda r: r.update(failed=1))

    def test_vni_leak(self):
        def leak(r):
            r["checks"]["admission"]["releases"] -= 1
        self.rejects("admission_spike", leak)

    def test_nondeterministic_pass(self):
        def diverge(r):
            r["checks"]["determinism"]["digests_equal"] = 0
        self.rejects("fabric_permutation", diverge)

    def test_engine_thread_counts_disagree(self):
        def diverge(r):
            r["checks"]["engine"]["delivered_tn"] -= 1
        self.rejects("fabric_permutation.traced", diverge, trace=True)

    def test_metric_not_in_benchmark_json(self):
        def extra(r):
            r["metrics"]["latency_ms"] = 1.0
        errors = self.rejects("admission_spike", extra)
        self.assertTrue(any("not in BENCHMARK.json" in e for e in errors))

    def test_metric_missing(self):
        errors = self.rejects("fabric_permutation",
                              lambda r: r["metrics"].pop("vt_p99_us"))
        self.assertTrue(any("missing" in e for e in errors))

    def test_zero_end_to_end_metric(self):
        def zero(r):
            r["metrics"]["ops_per_s"] = 0.0
        self.rejects("tenant_churn_failover", zero)

    def test_per_layer_names(self):
        names = {m["name"]: 1.0 for m in BENCH["per_layer"]}
        errors = []
        check.check_metrics(errors, names, BENCH, trace=True)
        self.assertEqual(errors, [])
        names.pop(next(iter(names)))
        names["hsn.switch.bogus"] = 1.0
        check.check_metrics(errors, names, BENCH, trace=True)
        self.assertEqual(len(errors), 2)


class Summarizer(unittest.TestCase):
    def test_self_time(self):
        # pass [0, 1000) holds a post batch [100, 300) of 4 packets and a
        # loop run [400, 500) of 7 events, which holds a repair [420, 450).
        text = ("#name 0 bench.pass\n#name 1 hsn.nic.post_send\n"
                "#name 2 sim.run_for\n#name 3 hsn.fabric_manager.repair\n"
                "0 -1 0 0 1000 1\n1 0 0 100 300 4\n2 0 0 400 500 7\n"
                "3 2 0 420 450 1\n")
        with tempfile.NamedTemporaryFile("w", suffix=".spans", delete=False) as f:
            f.write(text)
        try:
            stats = summarize.SpanStats(*summarize.load_spans(f.name))
        finally:
            os.unlink(f.name)
        self.assertEqual(stats.root_ns, 1000)
        self.assertEqual(stats.self_ns["hsn.nic"], 200)
        self.assertEqual(stats.self_ns["sim"], 70)
        self.assertEqual(stats.self_ns["hsn.fabric_manager"], 30)
        self.assertEqual(stats.self_ns["bench"], 700)
        self.assertEqual(sum(stats.self_ns.values()), stats.root_ns)
        self.assertAlmostEqual(stats.per_item_ns("hsn.nic.post_send"), 50)

    def test_per_layer_metrics_match_benchmark_json(self):
        self.assertEqual(list(summarize.LAYER_METRICS),
                         [m["name"] for m in BENCH["per_layer"]])
        for m in BENCH["per_layer"]:
            self.assertEqual(summarize.LAYER_METRICS[m["name"]][0], m["unit"])


if __name__ == "__main__":
    unittest.main()
