// osu.hpp — OSU micro-benchmark workloads (osu_bw, osu_latency).
//
// Reimplements the measurement loops of the OSU suite the paper uses
// (Section IV-A): window-based streaming bandwidth and ping-pong latency,
// with warm-up (skip) iterations, over the mini-MPI layer.  Both ranks
// run on the calling thread in the order the protocol fixes, and results
// read off the ranks' *virtual* clocks, so a run is reproducible and
// reflects the calibrated Slingshot timing model, not host load.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/comm.hpp"
#include "util/status.hpp"

namespace shs::osu {

/// The packet-size sweep of Figs 5-8: 1 B, 2 B, ... 1 MB.
std::vector<std::uint64_t> default_size_sweep();

struct BwOptions {
  int iterations = 400;  ///< measured iterations (paper: 10'000)
  int skip = 10;         ///< warm-up iterations
  int window = 32;       ///< messages in flight per iteration (OSU: 64)
};

struct LatencyOptions {
  int iterations = 1000;  ///< measured iterations (paper: 20'000)
  int skip = 20;
};

/// Runs osu_bw between ranks 0 and 1 of `comm`: per iteration rank 0
/// sends a window, rank 1 drains it and acks, rank 0 receives the ack.
/// Returns throughput in MB/s computed from virtual time.
Result<double> run_osu_bw(mpi::Communicator& comm, std::uint64_t size,
                          const BwOptions& options = {});

/// Runs osu_latency (ping, then pong) between ranks 0 and 1 of `comm`.
/// Returns one-way latency in microseconds.
Result<double> run_osu_latency(mpi::Communicator& comm, std::uint64_t size,
                               const LatencyOptions& options = {});

}  // namespace shs::osu
