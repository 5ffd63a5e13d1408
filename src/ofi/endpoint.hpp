// endpoint.hpp — libfabric-style endpoint over a CXI hardware endpoint.
//
// Provides tagged two-sided messaging with posted-receive matching and an
// unexpected-message queue (the semantics MPI needs), plus one-sided RMA,
// plus a software completion queue.  The `*_sync` convenience calls wrap
// the post/progress/poll cycle for application code: a send or RMA walks
// the fabric synchronously, so its message, reply or ACK is queued before
// the post returns, and a `*_sync` call only matches what has already
// arrived (kTimeout when nothing has).
//
// Authentication already happened: constructing an Endpoint requires a
// CxiEndpoint, which only the CXI driver hands out after the member check.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cxi/libcxi.hpp"
#include "hsn/cassini_nic.hpp"
#include "ofi/types.hpp"
#include "util/status.hpp"

namespace shs::ofi {

/// Result of a completed receive.
struct RecvResult {
  std::uint64_t size = 0;
  std::uint64_t tag = 0;
  FiAddr src{};
  SimTime vt = 0;
};

/// A connected-less (RDM-style) endpoint.  Thread-compatible: one owner
/// thread per endpoint.
class Endpoint {
 public:
  /// Takes ownership of `hw` (freed through `lib` on destruction).
  Endpoint(cxi::LibCxi lib, hsn::CassiniNic& nic, cxi::CxiEndpoint hw,
           std::shared_ptr<hsn::TimingModel> timing);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// This endpoint's fabric address, to hand to peers out-of-band.
  [[nodiscard]] FiAddr addr() const noexcept {
    return FiAddr{hw_.nic, hw_.ep};
  }
  [[nodiscard]] hsn::Vni vni() const noexcept { return hw_.vni; }
  [[nodiscard]] hsn::TrafficClass traffic_class() const noexcept {
    return hw_.tc;
  }

  // -- Tagged two-sided messaging.

  /// Sends `size` bytes to `dst` under `tag`.  `payload` may be empty for
  /// size-only (timing) transfers.  Local completion: the returned time is
  /// the caller's clock after the NIC accepted the message.  If `context`
  /// is nonzero a kSend completion is also queued on the CQ.
  Result<SimTime> tsend(FiAddr dst, std::uint64_t tag,
                        std::span<const std::byte> payload,
                        std::uint64_t size, SimTime vt,
                        std::uint64_t context = 0);

  /// Posts a receive buffer for `tag` (or kTagAny).  Completion arrives on
  /// the CQ with `context`.
  void post_trecv(std::uint64_t tag, std::span<std::byte> buffer,
                  std::uint64_t context);

  /// Tagged receive of a message that has already arrived: matches the
  /// unexpected queue first, then the NIC RX queue in arrival order.
  /// Returns the receive metadata, or kTimeout if none has arrived.
  Result<RecvResult> trecv_sync(std::uint64_t tag,
                                std::span<std::byte> buffer);

  // -- Progress and completions.

  /// Drains arrived packets, matching posted receives (non-blocking).
  /// Returns the number of packets processed.
  std::size_t progress();

  /// Non-blocking CQ read.
  std::optional<Completion> cq_read();

  /// CQ read as a Result: kTimeout when no completion is queued.
  Result<Completion> cq_sread();

  // -- One-sided RMA.

  /// Registers `region` for remote access; returns the rkey to share.
  Result<hsn::RKey> mr_reg(std::span<std::byte> region);
  Status mr_close(hsn::RKey key);

  /// Posts a one-sided write and returns its op id immediately; the
  /// completion arrives later on the CQ as a Completion{kRmaWrite,
  /// op_id, vt} once the target's ACK lands (kError with a terminal
  /// status on denial or delivery failure).  An error return means the
  /// NIC rejected the post itself.
  Result<std::uint64_t> post_rma_write(hsn::NicAddr dst, hsn::RKey rkey,
                                       std::uint64_t offset,
                                       std::span<const std::byte> payload,
                                       std::uint64_t size, SimTime vt);

  /// Posts a one-sided read; the data lands in `out` (which must stay
  /// valid until the completion) when the response arrives, and the CQ
  /// raises Completion{kRmaRead, op_id, vt}.
  Result<std::uint64_t> post_rma_read(hsn::NicAddr dst, hsn::RKey rkey,
                                      std::uint64_t offset,
                                      std::uint64_t size,
                                      std::span<std::byte> out, SimTime vt);

  /// RDMA write that returns the caller's clock at remote-ACK time.
  /// Thin shim over post_rma_write + one CQ pass.
  Result<SimTime> rma_write_sync(hsn::NicAddr dst, hsn::RKey rkey,
                                 std::uint64_t offset,
                                 std::span<const std::byte> payload,
                                 std::uint64_t size, SimTime vt);

  /// RDMA read: fills `out` (resized to `size`) and returns the caller's
  /// clock at data-arrival time.  Thin shim over post_rma_read + one CQ
  /// pass.
  Result<SimTime> rma_read_sync(hsn::NicAddr dst, hsn::RKey rkey,
                                std::uint64_t offset, std::uint64_t size,
                                std::vector<std::byte>& out, SimTime vt);

  /// Number of messages sitting in the unexpected queue (diagnostics).
  [[nodiscard]] std::size_t unexpected_depth() const noexcept {
    return unexpected_.size();
  }

  /// Reliable-delivery accounting of the underlying NIC (all zeros when
  /// reliability is off).  With reliability on, a tsend/rma_* whose
  /// retry budget is exhausted surfaces as Code::kUnavailable (from the
  /// post) or a kError completion — never a hang; these counters are
  /// the observability side of that contract.
  [[nodiscard]] hsn::ReliabilityCounters nic_reliability() const {
    return nic_.reliability_counters();
  }
  /// Underlying NIC drop/queue accounting (rx_overflow backpressure etc).
  [[nodiscard]] hsn::NicCounters nic_counters() const {
    return nic_.counters();
  }

 private:
  struct PostedRecv {
    std::uint64_t tag = 0;
    std::span<std::byte> buffer;
    std::uint64_t context = 0;
  };

  /// Matches `p` against posted receives; true if consumed.
  bool match_posted(hsn::Packet& p);
  void deliver(const PostedRecv& r, hsn::Packet& p);
  /// Queues an arrival no receive matched (oldest dropped at the cap).
  void stash_unexpected(hsn::Packet&& p);
  /// Translates a NIC event into a CQ entry (read payloads land in the
  /// span registered at post time).
  void cq_push_from(hsn::Event&& e);
  /// Sync-shim tail: one progress pass, then takes the completion for
  /// `op` and returns its vt (or its terminal error; kTimeout if absent).
  Result<SimTime> await_rma(std::uint64_t op);
  static bool tag_matches(std::uint64_t posted, std::uint64_t got) noexcept {
    return posted == kTagAny || posted == got;
  }

  cxi::LibCxi lib_;
  hsn::CassiniNic& nic_;
  cxi::CxiEndpoint hw_;
  std::shared_ptr<hsn::TimingModel> timing_;
  std::uint64_t next_op_ = 1;

  std::deque<PostedRecv> posted_;
  std::deque<hsn::Packet> unexpected_;
  std::deque<Completion> cq_;
  /// Outstanding read destinations, keyed by op id.
  std::unordered_map<std::uint64_t, std::span<std::byte>> pending_reads_;
};

}  // namespace shs::ofi
