// perfbench_driver — runs one benchmark workload for a host-time budget
// and prints one JSON record (metrics, per-layer counters, and the raw
// numbers behind every correctness check) as its last stdout line.
// run.py builds this, checks the record with check.py and prints the
// benchmark's result line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans <path>]
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Record;

void print_number(double v) {
  if (!std::isfinite(v)) {
    std::printf("null");
  } else {
    std::printf("%.17g", v);
  }
}

void print_map(const std::map<std::string, double>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
    print_number(v);
    first = false;
  }
  std::printf("}");
}

void print_list(const std::vector<double>& v) {
  std::printf("[");
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) std::printf(", ");
    print_number(v[i]);
  }
  std::printf("]");
}

void print_record(const perfbench::Options& opt, const Record& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0);
  std::printf("\"attempted\": %llu, \"failed\": %llu, \"digest\": \"%s\", ",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.digest.c_str());
  std::printf("\"metrics\": ");
  print_map(r.metrics);
  std::printf(", \"counters\": ");
  print_map(r.counters);
  std::printf(", \"checks\": {");
  bool first = true;
  for (const auto& [k, m] : r.checks) {
    std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
    print_map(m);
    first = false;
  }
  std::printf("}, \"setup_s\": ");
  print_list(r.setup_s);
  std::printf(", \"pass_host_s\": ");
  print_list(r.pass_host_s);
  std::printf(", \"untraced_pass_host_s\": ");
  print_list(r.untraced_pass_host_s);
  std::printf(", \"spans\": \"%s\"}\n", opt.trace ? opt.span_path.c_str() : "");
}

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (std::strcmp(k, "--seconds") == 0) {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0)) return false;
    } else if (std::strcmp(k, "--trace") == 0) {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(k, "--spans") == 0) {
      opt.span_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt) || (opt.trace && opt.span_path.empty())) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  shs::Log::set_level(shs::LogLevel::kError);

  perfbench::Tracer tracer;
  Record rec;
  std::string err;
  if (opt.workload == "admission_spike") {
    err = perfbench::run_admission_spike(opt, tracer, rec);
  } else if (opt.workload == "fabric_permutation") {
    err = perfbench::run_fabric_permutation(opt, tracer, rec);
  } else if (opt.workload == "tenant_churn_failover") {
    err = perfbench::run_tenant_churn_failover(opt, tracer, rec);
  } else {
    err = "unknown workload " + opt.workload;
  }
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench_driver: %s\n", err.c_str());
    return 1;
  }

  rec.metrics["setup_s"] = perfbench::median(rec.setup_s);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rec.metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (opt.trace && !tracer.write(opt.span_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 opt.span_path.c_str());
    return 1;
  }
  print_record(opt, rec);
  return 0;
}
