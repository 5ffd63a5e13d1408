// bench.hpp — shared pieces of the benchmark driver: host clock, the
// span tracer, sample statistics, and the result record every workload
// fills in.
//
// Layers are measured from outside: a workload wraps each call it makes
// into a layer's public API (SlingshotStack, ApiServer, CassiniNic,
// ShardEngine, FabricManager, ofi::Endpoint) in a Tracer::Scope and reads
// the counters those layers already expose.  Spans stay in memory and are
// written out once, at exit; summarize.py turns them into per-layer self
// time and per-call costs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "hsn/packet.hpp"

namespace perfbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line options the driver receives from run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;  ///< where the traced run writes its spans
};

/// Deterministic 64-bit mix (splitmix64) for deriving per-workload seeds
/// and folding virtual-time results into per-pass digests.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive digest over virtual-time results.
struct Digest {
  std::uint64_t h = 0x5b0e11a7ULL;
  void add(std::uint64_t v) { h = mix64(h ^ v); }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// Records spans around calls into the simulator's layers.  Disabled
/// (the untraced run) it costs one branch per call site.  Calls cheaper
/// than a microsecond are timed in batches — one span around many calls,
/// with the call count in `count` — so clock reads do not swamp what
/// they measure.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint64_t req = 0;     ///< request id shared by one op's spans
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t count = 1;  ///< work items the call covered (packets, ...)
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Registers a span name; returns its id.
  std::uint32_t name(const std::string& n) {
    names_.push_back(n);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span (or returns -1 when off).
  std::int32_t begin(std::uint32_t name, std::uint64_t req) {
    if (!on_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), req,
                      host_ns(), 0, 1});
    open_.push_back(idx);
    return idx;
  }
  void end(std::int32_t idx, std::uint64_t count = 1) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end = host_ns();
    s.count = count;
    open_.pop_back();
  }

  /// Writes "#name <id> <name>" headers, then one
  /// "<name> <parent> <req> <start_ns> <end_ns> <count>" line per span.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "#name %zu %s\n", i, names_[i].c_str());
    }
    for (const Span& s : spans_) {
      std::fprintf(f, "%u %d %llu %lld %lld %llu\n", s.name, s.parent,
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
  }


 private:
  bool on_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::uint32_t name, std::uint64_t req = 0)
      : t_(t), idx_(t.begin(name, req)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_;
};

/// Linear-interpolated percentile of `v` (copied and sorted), p in
/// [0, 100]; 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// What one driver run reports.  `metrics` are the end-to-end values
/// (untraced run); `counters` are raw per-layer counts, each ratio
/// stored next to its base; `checks` are the raw numbers check.py
/// validates (conservation, isolation, payloads, determinism, ...).
struct Record {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> counters;
  std::map<std::string, std::map<std::string, double>> checks;
  std::vector<double> setup_s;       ///< one sample per set-up
  std::vector<double> pass_host_s;   ///< timed passes (after warm-up)
  std::vector<double> untraced_pass_host_s;  ///< trace mode: paired passes
  std::string digest;                ///< virtual-time digest of pass 0
};

/// Host-time budget of a run: passes start while the deadline has not
/// passed, with a floor and a ceiling on their number.
struct Budget {
  std::int64_t deadline_ns = 0;
  int min_passes = 2;
  int max_passes = 1000;
  [[nodiscard]] bool more(int done) const {
    if (done < min_passes) return true;
    return done < max_passes && host_ns() < deadline_ns;
  }
};

/// Runs a workload's passes.  Pass 0 is the untimed warm-up and the
/// reference every later pass's virtual-time digest must equal; timed
/// passes follow while `budget` allows, alternating traced and untraced
/// in a traced run.  `run_pass(n)` returns a result with `setup_s`,
/// `host_s`, `digest` and `error`.  Fills the record's timing lists,
/// determinism check and digest, and returns pass 0's result (or the
/// first failed pass's).
template <typename RunPass>
auto run_passes(const Options& opt, Tracer& tr, const Budget& budget,
                Record& rec, RunPass run_pass) -> decltype(run_pass(0)) {
  auto ref = run_pass(0);
  if (!ref.error.empty()) return ref;
  rec.setup_s.push_back(ref.setup_s);
  std::vector<double> traced_s;
  int passes = 1;
  bool same = true;
  for (int done = 0; budget.more(done); ++done) {
    const bool traced = opt.trace && done % 2 == 0;
    tr.enable(traced);
    auto p = run_pass(static_cast<std::uint64_t>(done + 1));
    tr.enable(false);
    if (!p.error.empty()) return p;
    ++passes;
    rec.setup_s.push_back(p.setup_s);
    (traced ? traced_s : rec.untraced_pass_host_s).push_back(p.host_s);
    same = same && p.digest == ref.digest;
  }
  rec.pass_host_s = opt.trace ? traced_s : rec.untraced_pass_host_s;
  rec.checks["determinism"] = {{"passes", static_cast<double>(passes)},
                               {"digests_equal", same ? 1.0 : 0.0}};
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(ref.digest));
  rec.digest = hex;
  return ref;
}

inline std::int64_t deadline_after(double seconds) {
  return host_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Sum of the per-reason drop counters, which must equal dropped_total().
inline double drop_breakdown(const shs::hsn::SwitchCounters& c) {
  return static_cast<double>(c.dropped_src_unauthorized +
                             c.dropped_dst_unauthorized +
                             c.dropped_unknown_dst + c.dropped_no_route +
                             c.dropped_link_down + c.dropped_loss +
                             c.dropped_corrupt + c.dropped_stale_epoch);
}

/// Workload entry points.  Each fills `rec`; a non-empty return is a
/// fatal error message (the run prints no result).
std::string run_admission_spike(const Options& opt, Tracer& tr, Record& rec);
std::string run_fabric_permutation(const Options& opt, Tracer& tr,
                                   Record& rec);
std::string run_tenant_churn_failover(const Options& opt, Tracer& tr,
                                      Record& rec);

}  // namespace perfbench
