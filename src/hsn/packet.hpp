// packet.hpp — the unit of transfer on the simulated fabric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hsn/types.hpp"
#include "util/units.hpp"

namespace shs::hsn {

/// A fabric packet.  `size_bytes` is authoritative for timing; `payload`
/// optionally carries real data (correctness tests copy data, the OSU
/// throughput benches send size-only packets to avoid gigabytes of memcpy
/// that would not change the modeled timing).
struct Packet {
  NicAddr src = kInvalidNic;
  NicAddr dst = kInvalidNic;
  EndpointId src_ep = 0;
  EndpointId dst_ep = 0;
  Vni vni = kInvalidVni;
  TrafficClass tc = TrafficClass::kBestEffort;
  PacketOp op = PacketOp::kSend;
  std::uint64_t size_bytes = 0;

  /// Two-sided matching tag (used by the ofi/mpi layers).
  std::uint64_t tag = 0;
  /// Sequence number assigned by the sending endpoint.
  std::uint64_t seq = 0;
  /// Initiator-side operation id, echoed by ACK/response packets so the
  /// initiating NIC can complete the matching operation.
  std::uint64_t op_id = 0;

  /// One-sided ops: target memory-region key and offset.
  RKey rkey = 0;
  std::uint64_t mr_offset = 0;

  /// Virtual timestamps: when the sender injected the packet and when the
  /// fabric delivered it (computed by the switch's timing model).  On a
  /// multi-switch fabric `inject_vt` advances at every inter-switch hop
  /// (it is the ingress time at the current switch).
  SimTime inject_vt = 0;
  SimTime arrival_vt = 0;

  /// Inter-switch hops taken so far (0 = delivered by the ingress switch).
  std::uint8_t hops = 0;

  /// Valiant/UGAL detour marker: intermediate switch this packet must
  /// traverse before heading to its destination (kInvalidSwitch = route
  /// minimally).  Set by the source edge switch's routing decision and
  /// cleared when the packet reaches the intermediate.
  SwitchId via_switch = kInvalidSwitch;

  /// Set by the sending NIC's reliability layer: retransmitted copies
  /// keep the original `seq`, and the receiving NIC suppresses
  /// duplicates of (src, seq) pairs it has already accepted.  The fault
  /// model also keys its ACK-loss draw off this bit (losing the
  /// link-level ACK of an unreliable packet is indistinguishable from
  /// losing the packet).
  bool reliable = false;

  /// Serialization-time cache: wire time is a pure function of
  /// (size_bytes, link rate), and every link a packet crosses usually
  /// runs at the same rate — so switches compute it once per path and
  /// carry it here (0 = not yet computed).  Purely an optimization
  /// artifact: never serialized, never observable.
  std::uint64_t ser_cache_bps = 0;
  SimDuration ser_cache = 0;

  std::vector<std::byte> payload;
};

/// Per-VNI / per-port drop and delivery accounting, exposed by the switch.
struct SwitchCounters {
  std::uint64_t delivered = 0;
  std::uint64_t dropped_src_unauthorized = 0;
  std::uint64_t dropped_dst_unauthorized = 0;
  std::uint64_t dropped_unknown_dst = 0;
  std::uint64_t dropped_no_route = 0;  ///< no uplink / TTL exhausted
  /// Packets lost to a dead link or failed switch: in flight when the
  /// failure hit, or routed in the window before the fabric manager
  /// republished repaired tables.
  std::uint64_t dropped_link_down = 0;
  /// Fault-model losses (see docs/reliability.md): probabilistic drop on
  /// a lossy link, and CRC-detected corruption discarded at the next
  /// hop.  Both zero unless a FaultProfile has been armed.
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_corrupt = 0;
  /// Packets that could only make progress under a plan epoch the fabric
  /// manager has committed but this switch has not applied yet (the
  /// staggered-publish window): the drop site saw no route / a dead next
  /// hop while its plan version lagged the committed epoch.
  /// Counted, never silent — retransmits carry the op across the epoch.
  std::uint64_t dropped_stale_epoch = 0;
  /// Reliable packets that WERE delivered but whose link-level ACK was
  /// lost on the way back: the receiver has the data, the sender sees a
  /// failure and retransmits (the duplicate is suppressed NIC-side).
  /// Not a drop — excluded from dropped_total().
  std::uint64_t ack_lost = 0;
  std::uint64_t bytes_delivered = 0;
  /// Transit traffic handed to an inter-switch uplink by this switch.
  std::uint64_t forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  /// Packets this switch (as source edge) sent on a non-minimal Valiant
  /// detour — adaptive-routing telemetry (0 under kMinimal; under kUgal
  /// it counts only packets whose estimated minimal delay lost).
  std::uint64_t routed_nonminimal = 0;

  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_src_unauthorized + dropped_dst_unauthorized +
           dropped_unknown_dst + dropped_no_route + dropped_link_down +
           dropped_loss + dropped_corrupt + dropped_stale_epoch;
  }

  SwitchCounters& operator+=(const SwitchCounters& c) noexcept {
    delivered += c.delivered;
    dropped_src_unauthorized += c.dropped_src_unauthorized;
    dropped_dst_unauthorized += c.dropped_dst_unauthorized;
    dropped_unknown_dst += c.dropped_unknown_dst;
    dropped_no_route += c.dropped_no_route;
    dropped_link_down += c.dropped_link_down;
    dropped_loss += c.dropped_loss;
    dropped_corrupt += c.dropped_corrupt;
    dropped_stale_epoch += c.dropped_stale_epoch;
    ack_lost += c.ack_lost;
    bytes_delivered += c.bytes_delivered;
    forwarded += c.forwarded;
    bytes_forwarded += c.bytes_forwarded;
    routed_nonminimal += c.routed_nonminimal;
    return *this;
  }
};

/// Per-uplink transit accounting (directed link).
struct LinkCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  /// Worst queue lag observed at forward time: how far the link's
  /// bandwidth horizon was ahead of the packet's arrival (the congestion
  /// signal adaptive routing steers by).
  SimDuration peak_queue_lag = 0;
};

}  // namespace shs::hsn
