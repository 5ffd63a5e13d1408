#!/usr/bin/env python3
"""Summarize a traced benchmark run: per-layer self time, per-call costs,
the per-layer counters with their bases, and the tracing overhead.

    python3 perfbench/summarize.py <record.json> [<spans.txt>]

The record is the driver's JSON line (run.py saves it next to the span
file); the span file defaults to the path the record names.  run.py calls
per_layer() to build the traced run's metrics from the same code.

Span file format (written by perfbench/driver/bench.hpp at exit):
    #name <id> <name>
    <name_id> <parent_index> <req> <start_ns> <end_ns> <count>
`count` is the number of work items (calls, packets, events) a span
covers; calls cheaper than a microsecond are timed in batches.  A layer's
self time is its spans' time minus the part their child spans cover.
"""
import json
import statistics
import sys


def load_spans(path):
    names, spans = {}, []
    with open(path) as f:
        for line in f:
            if line.startswith("#name "):
                _, i, name = line.split(maxsplit=2)
                names[int(i)] = name.strip()
                continue
            name, parent, req, start, end, count = line.split()
            spans.append((int(name), int(parent), int(req), int(start),
                          int(end), int(count)))
    return names, spans


def layer_of(name):
    """hsn.<component>.* names keep two levels; the rest keep one."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "hsn" else parts[0]


class SpanStats:
    """Per-name call costs and per-layer self time from a span list."""

    def __init__(self, names, spans):
        self.names = names
        child_ns = [0] * len(spans)
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.durs = {}      # name -> [duration ns] of every span
        self.counts = {}    # name -> total work items
        self.self_ns = {}   # layer -> self time
        self.root_ns = 0
        for i, (name, parent, _, start, end, count) in enumerate(spans):
            n = names[name]
            dur = end - start
            self.durs.setdefault(n, []).append(dur)
            self.counts[n] = self.counts.get(n, 0) + count
            layer = layer_of(n)
            self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child_ns[i]
            if parent < 0:
                self.root_ns += dur

    def pct_ns(self, name, p):
        d = sorted(self.durs.get(name, []))
        if not d:
            return 0.0
        if len(d) == 1:
            return float(d[0])
        return statistics.quantiles(d, n=100, method="inclusive")[p - 1] \
            if p < 100 else float(d[-1])

    def calls(self, name):
        return len(self.durs.get(name, []))

    def per_item_ns(self, name):
        """Span time / work items."""
        items = self.counts.get(name, 0)
        return sum(self.durs.get(name, [])) / items if items else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics of the traced run: name -> (unit, how, base).  `how`
# maps (counters c, SpanStats s, record r) to the value; `base` names the
# denominator (or sample) the value rests on.  A layer a workload never
# calls reports 0 with a base of 0.
def _pct(name, p, scale):
    return lambda c, s, r: s.pct_ns(name, p) * scale


def _c(key):
    return lambda c, s, r: c.get(key, 0.0)


def _self(layer):
    return lambda c, s, r: ratio(s.self_ns.get(layer, 0.0), s.root_ns)


def _overhead(c, s, r):
    traced, plain = r.get("pass_host_s", []), r.get("untraced_pass_host_s", [])
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


def _switch_ns_per_hop(c, s, r):
    """Synchronous-walk post cost spread over the switch traversals of
    an average packet (ingress switch plus one per inter-switch hop)."""
    per_pkt = s.per_item_ns("hsn.nic.post_send")
    return ratio(per_pkt * c.get("hsn.packets", 0.0),
                 c.get("hsn.switch.traversals", 0.0))


def _calls(name):
    return lambda c, s, r: s.calls(name)


def _items(name):
    return lambda c, s, r: s.counts.get(name, 0)


LAYER_METRICS = {
    # k8s api / admission
    "k8s.submit_job.host_us_p50": ("us/call", _pct("k8s.submit_job", 50, 1e-3), _calls("k8s.submit_job")),
    "k8s.submit_job.host_us_p99": ("us/call", _pct("k8s.submit_job", 99, 1e-3), _calls("k8s.submit_job")),
    "k8s.api.live_pods_peak": ("count", _c("k8s.api.live_pods_peak"), _c("admit.samples")),
    # sim event loop
    "sim.host_ns_per_event": ("ns/event", lambda c, s, r: s.per_item_ns("sim.run_for") or s.per_item_ns("sim.run_until_running"), lambda c, s, r: s.counts.get("sim.run_for", 0) + s.counts.get("sim.run_until_running", 0)),
    "sim.events_per_op": ("events/op", _c("sim.events_per_op"), _c("sim.events")),
    "sim.host_ms_per_vs_p50": ("ms/vs", _c("sim.host_ms_per_vs.p50"), _c("sim.host_ms_per_vs.samples")),
    "sim.host_ms_per_vs_slope": ("ms/vs/kpod", _c("sim.host_ms_per_vs.slope_per_kpod"), _c("sim.host_ms_per_vs.samples")),
    # k8s stages, virtual time
    "admit.vt_create_to_bound_us_p50": ("us", _c("admit.vt_create_to_bound_us.p50"), _c("admit.samples")),
    "admit.vt_create_to_bound_us_p99": ("us", _c("admit.vt_create_to_bound_us.p99"), _c("admit.samples")),
    "admit.vt_bound_to_running_us_p50": ("us", _c("admit.vt_bound_to_running_us.p50"), _c("admit.samples")),
    "admit.vt_bound_to_running_us_p99": ("us", _c("admit.vt_bound_to_running_us.p99"), _c("admit.samples")),
    "admit.vt_submit_to_pod_us_p50": ("us", _c("admit.vt_submit_to_pod_us.p50"), _c("admit.samples")),
    "admit.vt_submit_to_pod_us_p99": ("us", _c("admit.vt_submit_to_pod_us.p99"), _c("admit.samples")),
    # core: VNI endpoint and CXI CNI
    "core.vni_endpoint.sync_job_per_job": ("ratio", _c("core.vni_endpoint.sync_job_per_job"), _c("core.vni_endpoint.acquisitions")),
    "core.vni_endpoint.acquisitions": ("count", _c("core.vni_endpoint.acquisitions"), _c("core.cxi_cni.pods")),
    "core.vni_endpoint.releases": ("count", _c("core.vni_endpoint.releases"), _c("core.cxi_cni.pods")),
    "core.cxi_cni.unavailable_adds_per_pod": ("ratio", _c("core.cxi_cni.unavailable_adds_per_pod"), _c("core.cxi_cni.pods")),
    # cxi driver
    "cxi.open_endpoint.host_us_p50": ("us/call", _pct("cxi.open_endpoint", 50, 1e-3), _calls("cxi.open_endpoint")),
    # ofi
    "ofi.post_rma_write.host_ns_p50": ("ns/call", _pct("ofi.post_rma_write", 50, 1.0), _calls("ofi.post_rma_write")),
    "ofi.post_rma_read.host_ns_p50": ("ns/call", _pct("ofi.post_rma_read", 50, 1.0), _calls("ofi.post_rma_read")),
    "ofi.tsend.host_ns_p50": ("ns/call", _pct("ofi.tsend", 50, 1.0), _calls("ofi.tsend")),
    "ofi.progress.host_ns_per_op": ("ns/op", lambda c, s, r: s.per_item_ns("ofi.progress"), _items("ofi.progress")),
    # hsn NIC
    "hsn.nic.post_send.host_ns_per_pkt": ("ns/pkt", lambda c, s, r: s.per_item_ns("hsn.nic.post_send"), _items("hsn.nic.post_send")),
    "hsn.nic.drain_rx.host_ns_per_pkt": ("ns/pkt", lambda c, s, r: s.per_item_ns("hsn.nic.drain_rx"), _items("hsn.nic.drain_rx")),
    # hsn switch
    "hsn.switch.hops_per_pkt": ("hops/pkt", _c("hsn.switch.hops_per_pkt"), _c("hsn.packets")),
    "hsn.switch.host_ns_per_hop": ("ns/hop", _switch_ns_per_hop, _c("hsn.switch.traversals")),
    "hsn.switch.nonminimal_frac": ("ratio", _c("hsn.switch.nonminimal_frac"), _c("hsn.packets")),
    "hsn.switch.peak_uplink_lag_us": ("us", _c("hsn.switch.peak_uplink_lag_us"), _c("hsn.packets")),
    "hsn.switch.drops_per_op.link_down": ("drops/op", _c("hsn.switch.drops.link_down"), _c("ops")),
    "hsn.switch.drops_per_op.no_route": ("drops/op", _c("hsn.switch.drops.no_route"), _c("ops")),
    "hsn.switch.drops_per_op.stale_epoch": ("drops/op", _c("hsn.switch.drops.stale_epoch"), _c("ops")),
    "hsn.switch.drops_per_op.src_unauth": ("drops/op", _c("hsn.switch.drops.src_unauthorized"), _c("ops")),
    "hsn.goodput_gbps": ("Gb/s", _c("hsn.goodput_gbps"), _c("hsn.vt_span_s")),
    # hsn reliability
    "hsn.reliability.retransmits_per_op": ("1/op", _c("hsn.reliability.retransmits_per_op"), _c("ops")),
    "hsn.reliability.duplicates": ("count", _c("hsn.reliability.duplicates"), _c("ops")),
    "hsn.reliability.budget_exhausted": ("count", _c("hsn.reliability.budget_exhausted"), _c("ops")),
    "hsn.reliability.recovered_after_replan": ("count", _c("hsn.reliability.recovered_after_replan"), _c("ops")),
    "hsn.reliability.useful_frac": ("ratio", _c("hsn.reliability.useful_frac"), _c("hsn.reliability.retransmits")),
    # hsn fabric manager
    "hsn.fabric_manager.repair.host_ms_p50": ("ms/repair", _pct("hsn.fabric_manager.repair", 50, 1e-6), _calls("hsn.fabric_manager.repair")),
    "hsn.fabric_manager.repair.host_ms_max": ("ms/repair", _pct("hsn.fabric_manager.repair", 100, 1e-6), _calls("hsn.fabric_manager.repair")),
    "hsn.fabric_manager.repairs": ("count", _c("hsn.fabric_manager.repairs"), _c("ops")),
    "hsn.fabric_manager.plan_version": ("count", _c("hsn.fabric_manager.plan_version"), _c("hsn.fabric_manager.repairs")),
    # hsn sharded engine (fabric_permutation traced run only)
    "hsn.shard_engine.post_send.host_ns": ("ns/pkt", lambda c, s, r: s.per_item_ns("hsn.shard_engine.post_send"), _items("hsn.shard_engine.post_send")),
    "hsn.shard_engine.flush_t1.host_ns_per_pkt": ("ns/pkt", lambda c, s, r: s.per_item_ns("hsn.shard_engine.flush_t1"), _items("hsn.shard_engine.flush_t1")),
    "hsn.shard_engine.flush_tn.host_ns_per_pkt": ("ns/pkt", lambda c, s, r: s.per_item_ns("hsn.shard_engine.flush_tn"), _items("hsn.shard_engine.flush_tn")),
    "hsn.shard_engine.speedup_vs_sync": ("x", _c("hsn.shard_engine.speedup_vs_sync"), _c("hsn.shard_engine.tn_host_s")),
    "hsn.shard_engine.items_per_window": ("items/window", _c("hsn.shard_engine.items_per_window"), _c("hsn.shard_engine.windows")),
    "hsn.shard_engine.cross_forward_frac": ("ratio", _c("hsn.shard_engine.cross_forward_frac"), _c("hsn.shard_engine.forwards")),
    "hsn.shard_engine.silent_barrier_frac": ("ratio", _c("hsn.shard_engine.silent_barrier_frac"), _c("hsn.shard_engine.windows")),
    "hsn.shard_engine.pool_hit_rate": ("ratio", _c("hsn.shard_engine.pool_hit_rate"), _c("hsn.shard_engine.pool_allocs")),
    # self time per layer, as a share of all traced host time
    "self_frac.bench": ("ratio", _self("bench"), None),
    "self_frac.k8s": ("ratio", _self("k8s"), None),
    "self_frac.sim": ("ratio", _self("sim"), None),
    "self_frac.core": ("ratio", _self("core"), None),
    "self_frac.cxi": ("ratio", _self("cxi"), None),
    "self_frac.ofi": ("ratio", _self("ofi"), None),
    "self_frac.hsn.fabric": ("ratio", _self("hsn.fabric"), None),
    "self_frac.hsn.nic": ("ratio", _self("hsn.nic"), None),
    "self_frac.hsn.fabric_manager": ("ratio", _self("hsn.fabric_manager"), None),
    "self_frac.hsn.shard_engine": ("ratio", _self("hsn.shard_engine"), None),
    "trace.overhead_frac": ("ratio", _overhead, None),
}


def per_layer(record, span_path=None):
    """Returns ({metric: value}, {metric: base}, SpanStats)."""
    stats = SpanStats(*load_spans(span_path or record["spans"]))
    counters = record.get("counters", {})
    values, bases = {}, {}
    for metric, (_, how, base) in LAYER_METRICS.items():
        values[metric] = float(how(counters, stats, record))
        bases[metric] = float(base(counters, stats, record)) if base else stats.root_ns * 1e-9
    return values, bases, stats


def print_summary(record, values, bases, stats, out=sys.stdout):
    w = record.get("workload", "?")
    print(f"# traced run: {w}, seed {record.get('seed')}", file=out)
    print(f"# traced host time {stats.root_ns * 1e-9:.3f} s; self time by layer:", file=out)
    for layer, ns in sorted(stats.self_ns.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:<24} {ns * 1e-6:10.1f} ms  {ratio(ns, stats.root_ns):6.1%}", file=out)
    print("# span costs (p50 / p99 per span, ns per work item):", file=out)
    for name in sorted(stats.durs):
        print(f"#   {name:<32} calls {stats.calls(name):>8}  p50 {stats.pct_ns(name, 50):>12.0f} ns"
              f"  p99 {stats.pct_ns(name, 99):>12.0f} ns  {stats.per_item_ns(name):>10.1f} ns/item", file=out)
    print("# per-layer metrics (value  [unit]  base):", file=out)
    for metric, (unit, _, base) in LAYER_METRICS.items():
        b = f"base {bases[metric]:.6g}" if base else f"of {bases[metric]:.3f} s traced"
        print(f"#   {metric:<42} {values[metric]:>14.6g} [{unit}]  {b}", file=out)
    print(f"# tracing overhead: traced pass median {statistics.median(record['pass_host_s']):.4f} s vs "
          f"untraced {statistics.median(record['untraced_pass_host_s']):.4f} s "
          f"({values['trace.overhead_frac']:+.1%})", file=out)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        record = json.load(f)
    values, bases, stats = per_layer(record, argv[2] if len(argv) > 2 else None)
    print_summary(record, values, bases, stats)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
