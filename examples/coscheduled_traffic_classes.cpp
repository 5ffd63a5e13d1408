// coscheduled_traffic_classes.cpp — use-case 1 of the paper's intro:
// "co-scheduling a low-latency critical application with a less
// latency-sensitive task such as check-pointing", using different
// Slingshot traffic classes so the bulk traffic cannot hurt the solver.
//
// One job, two workloads inside it: a latency-critical ping-pong on
// LOW_LATENCY and a checkpoint stream on BULK_DATA hammering the same
// destination port.  The demo measures solver latency with and without
// the competing checkpoint traffic.  Both run on one host thread and are
// ordered by virtual time, so the output is deterministic.
//
//   $ ./build/examples/coscheduled_traffic_classes
#include <cstdio>
#include <vector>

#include "core/stack.hpp"
#include "osu/osu.hpp"
#include "util/log.hpp"

using namespace shs;

int main() {
  Log::set_level(LogLevel::kWarn);
  std::printf("== co-scheduled traffic classes: solver vs checkpointing "
              "==\n\n");

  core::SlingshotStack stack;
  auto job = stack.submit_job({.name = "coscheduled",
                               .vni_annotation = "true",
                               .pods = 2,
                               .run_duration = 600 * kSecond,
                               .spread_key = "cosched"});
  stack.wait_job_start(job.value());
  const auto pods = stack.pods_of_job(job.value());
  const hsn::Vni vni = pods[0].status.vni;
  std::printf("[1] job running on VNI %u, pods on %s and %s\n", vni,
              pods[0].status.node.c_str(), pods[1].status.node.c_str());

  auto h0 = stack.exec_in_pod(pods[0].meta.uid).value();
  auto h1 = stack.exec_in_pod(pods[1].meta.uid).value();
  auto dom0 = stack.domain_for(h0).value();
  auto dom1 = stack.domain_for(h1).value();

  // Solver endpoints: LOW_LATENCY class.
  auto solver0 =
      dom0.open_endpoint(vni, hsn::TrafficClass::kLowLatency).value();
  auto solver1 =
      dom1.open_endpoint(vni, hsn::TrafficClass::kLowLatency).value();
  // Checkpoint endpoints: BULK_DATA class.
  auto ckpt0 =
      dom0.open_endpoint(vni, hsn::TrafficClass::kBulkData).value();
  auto ckpt1 =
      dom1.open_endpoint(vni, hsn::TrafficClass::kBulkData).value();

  // 2. Solver latency on an idle fabric.
  auto comm = mpi::Communicator::create({solver0.get(), solver1.get()});
  osu::LatencyOptions opts;
  opts.iterations = 400;
  const double idle_lat = osu::run_osu_latency(*comm, 8, opts).value_or(-1);
  std::printf("[2] solver latency, idle fabric:        %.2f us\n", idle_lat);

  // 3. The checkpoint stream: back-to-back 4 MiB BULK_DATA writes
  //    starting on the solver's clock, so their virtual times overlap the
  //    busy latency run that follows (each write takes ~170 us at line
  //    rate; the run takes ~1.4 ms).
  constexpr int kCheckpointWrites = 8;
  std::vector<std::byte> window(4 << 20);
  auto mr = ckpt1->mr_reg(window);
  if (!mr.is_ok()) return 1;
  const SimTime ckpt_begin = comm->rank(0).vt();
  SimTime vt = ckpt_begin;
  int writes_ok = 0;
  for (int i = 0; i < kCheckpointWrites; ++i) {
    auto t = ckpt0->rma_write_sync(solver1->addr().nic, mr.value(), 0, {},
                                   window.size(), vt);
    if (!t.is_ok()) break;
    vt = t.value();
    ++writes_ok;
  }
  const double busy_lat = osu::run_osu_latency(*comm, 8, opts).value_or(-1);
  std::printf("[3] solver latency, checkpoint running: %.2f us "
              "(LOW_LATENCY rides a higher-priority class)\n",
              busy_lat);
  std::printf("    checkpoint: %d/%d x 4 MiB writes completed over "
              "%.0f us of the %.0f us solver run\n",
              writes_ok, kCheckpointWrites, to_micros(vt - ckpt_begin),
              to_micros(comm->rank(0).vt() - ckpt_begin));
  if (writes_ok != kCheckpointWrites) return 1;

  // 4. The same checkpoint stream measured on its own class.
  std::printf("[4] traffic-class queueing penalties (per hop, modeled):\n");
  for (const auto tc :
       {hsn::TrafficClass::kDedicatedAccess, hsn::TrafficClass::kLowLatency,
        hsn::TrafficClass::kBulkData, hsn::TrafficClass::kBestEffort}) {
    std::printf("    %-18s +%.2f us\n",
                std::string(hsn::traffic_class_name(tc)).c_str(),
                to_micros(stack.fabric().timing()->tc_penalty(tc)));
  }

  const auto counters = stack.fabric().total_counters_for_vni(vni);
  std::printf("\n    fabric totals on VNI %u: %llu packets, %.1f MB "
              "delivered, %llu dropped\n",
              vni, static_cast<unsigned long long>(counters.delivered),
              static_cast<double>(counters.bytes_delivered) / 1e6,
              static_cast<unsigned long long>(counters.dropped_total()));
  std::printf("\nThe solver's latency stays in its class while bulk "
              "checkpointing saturates the link.\n");
  return 0;
}
