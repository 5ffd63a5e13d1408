#include "osu/osu.hpp"

#include "util/units.hpp"

namespace shs::osu {

namespace {
constexpr std::uint32_t kBwDataTag = 101;
constexpr std::uint32_t kBwAckTag = 102;
constexpr std::uint32_t kPingTag = 201;
constexpr std::uint32_t kPongTag = 202;
}  // namespace

std::vector<std::uint64_t> default_size_sweep() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 1; s <= (1ULL << 20); s <<= 1) sizes.push_back(s);
  return sizes;
}

Result<double> run_osu_bw(mpi::Communicator& comm, std::uint64_t size,
                          const BwOptions& options) {
  if (comm.size() < 2) {
    return Result<double>(invalid_argument("osu_bw needs two ranks"));
  }
  mpi::RankContext& sender = comm.rank(0);
  mpi::RankContext& receiver = comm.rank(1);

  SimTime t_begin = 0;
  for (int it = 0; it < options.iterations + options.skip; ++it) {
    if (it == options.skip) t_begin = sender.vt();
    for (int w = 0; w < options.window; ++w) {
      SHS_RETURN_IF_ERROR(sender.send(1, kBwDataTag, {}, size));
    }
    for (int w = 0; w < options.window; ++w) {
      SHS_RETURN_IF_ERROR(receiver.recv(0, kBwDataTag, {}).status());
    }
    // Window acknowledgement, as osu_bw's receiver sends after each
    // window (4-byte ack in the original).
    SHS_RETURN_IF_ERROR(receiver.send(0, kBwAckTag, {}, 4));
    SHS_RETURN_IF_ERROR(sender.recv(1, kBwAckTag, {}).status());
  }

  const double bytes = static_cast<double>(size) *
                       static_cast<double>(options.iterations) *
                       static_cast<double>(options.window);
  const double seconds = to_seconds(sender.vt() - t_begin);
  if (seconds <= 0) return Result<double>(internal_error("no elapsed time"));
  return bytes / seconds / 1.0e6;  // MB/s, as OSU reports
}

Result<double> run_osu_latency(mpi::Communicator& comm, std::uint64_t size,
                               const LatencyOptions& options) {
  if (comm.size() < 2) {
    return Result<double>(invalid_argument("osu_latency needs two ranks"));
  }
  mpi::RankContext& ping = comm.rank(0);
  mpi::RankContext& pong = comm.rank(1);

  SimTime t_begin = 0;
  for (int it = 0; it < options.iterations + options.skip; ++it) {
    if (it == options.skip) t_begin = ping.vt();
    SHS_RETURN_IF_ERROR(ping.send(1, kPingTag, {}, size));
    SHS_RETURN_IF_ERROR(pong.recv(0, kPingTag, {}).status());
    SHS_RETURN_IF_ERROR(pong.send(0, kPongTag, {}, size));
    SHS_RETURN_IF_ERROR(ping.recv(1, kPongTag, {}).status());
  }

  const double us = to_micros(ping.vt() - t_begin);
  // One-way latency: total round-trip time over 2*iterations.
  return us / (2.0 * static_cast<double>(options.iterations));
}

}  // namespace shs::osu
