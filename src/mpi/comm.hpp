// comm.hpp — a minimal MPI-like point-to-point layer over the ofi
// endpoints (the paper runs OSU over Open MPI over patched libfabric).
//
// Scope: exactly what the OSU micro-benchmarks need — ranks and tagged
// send/recv with source matching.  All ranks are driven from one thread
// in protocol order: a send walks the fabric synchronously, so the
// message is already queued at its target when send() returns, and a
// recv only matches what has arrived (kTimeout if nothing has).  Each
// rank owns a virtual clock; receives merge the sender's packet-arrival
// time into the local clock (Lamport-style), so bandwidth and latency
// read off virtual time and a run is reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ofi/endpoint.hpp"
#include "util/status.hpp"

namespace shs::mpi {

struct RecvInfo {
  std::uint64_t size = 0;
  int source = -1;
};

class Communicator;

/// Per-rank handle.  NOT thread-safe: drive all ranks from one thread.
class RankContext {
 public:
  RankContext(Communicator* comm, int rank, ofi::Endpoint* ep) noexcept
      : comm_(comm), rank_(rank), ep_(ep) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Tagged send of `size` bytes to `dst`.  Empty `data` sends a
  /// size-only (timing) message.
  Status send(int dst, std::uint32_t tag, std::span<const std::byte> data,
              std::uint64_t size);

  /// Tagged receive from `src` of a message that has already arrived;
  /// kTimeout when none has.
  Result<RecvInfo> recv(int src, std::uint32_t tag,
                        std::span<std::byte> buffer);

  /// This rank's virtual clock (nanoseconds).
  [[nodiscard]] SimTime vt() const noexcept { return vt_; }

 private:
  /// Wire tag: (src_rank+1) in the top bits so receives match by source.
  [[nodiscard]] static std::uint64_t wire_tag(int src,
                                              std::uint32_t tag) noexcept {
    return (static_cast<std::uint64_t>(src + 1) << 32) | tag;
  }

  Communicator* comm_;
  int rank_;
  ofi::Endpoint* ep_;
  SimTime vt_ = 0;
};

/// The world: rank -> endpoint addresses.  Construct via `create`.
class Communicator {
 public:
  /// Non-owning: endpoints must outlive the communicator.
  static std::unique_ptr<Communicator> create(
      std::vector<ofi::Endpoint*> endpoints);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] RankContext& rank(int i) { return *ranks_.at(i); }
  [[nodiscard]] ofi::FiAddr addr_of(int i) const { return addrs_.at(i); }

 private:
  Communicator() = default;
  friend class RankContext;
  std::vector<std::unique_ptr<RankContext>> ranks_;
  std::vector<ofi::FiAddr> addrs_;
};

}  // namespace shs::mpi
