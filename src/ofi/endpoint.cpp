#include "ofi/endpoint.hpp"

#include <algorithm>
#include <cstring>

#include "util/log.hpp"

namespace shs::ofi {

namespace {
constexpr const char* kTag = "ofi-ep";
constexpr std::size_t kMaxUnexpected = 1 << 15;
}  // namespace

Endpoint::Endpoint(cxi::LibCxi lib, hsn::CassiniNic& nic, cxi::CxiEndpoint hw,
                   std::shared_ptr<hsn::TimingModel> timing)
    : lib_(lib), nic_(nic), hw_(hw), timing_(std::move(timing)) {}

Endpoint::~Endpoint() {
  const Status st = lib_.free_endpoint(hw_);
  if (!st.is_ok() && st.code() != Code::kNotFound) {
    SHS_WARN(kTag) << "endpoint teardown: " << st;
  }
}

Result<SimTime> Endpoint::tsend(FiAddr dst, std::uint64_t tag,
                                std::span<const std::byte> payload,
                                std::uint64_t size, SimTime vt,
                                std::uint64_t context) {
  auto accepted = nic_.post_send(hw_.ep, dst.nic, dst.ep, tag, size, payload,
                                 vt, /*op_id=*/0);
  if (!accepted.is_ok()) return accepted;
  if (context != 0) {
    cq_.push_back(Completion{Completion::Kind::kSend, context, tag, size, dst,
                             accepted.value()});
  }
  return accepted;
}

void Endpoint::post_trecv(std::uint64_t tag, std::span<std::byte> buffer,
                          std::uint64_t context) {
  posted_.push_back(PostedRecv{tag, buffer, context});
}

void Endpoint::deliver(const PostedRecv& r, hsn::Packet& p) {
  if (!p.payload.empty() && !r.buffer.empty()) {
    std::memcpy(r.buffer.data(), p.payload.data(),
                std::min<std::size_t>(r.buffer.size(), p.payload.size()));
  }
  cq_.push_back(Completion{Completion::Kind::kRecv, r.context, p.tag,
                           p.size_bytes, FiAddr{p.src, p.src_ep},
                           p.arrival_vt + timing_->rx_overhead()});
}

bool Endpoint::match_posted(hsn::Packet& p) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (tag_matches(it->tag, p.tag)) {
      deliver(*it, p);
      posted_.erase(it);
      return true;
    }
  }
  return false;
}

void Endpoint::cq_push_from(hsn::Event&& e) {
  Completion c;
  c.op_id = e.op_id;
  c.size = e.size;
  c.vt = e.vt;
  switch (e.type) {
    case hsn::Event::Type::kSendComplete:
      c.kind = Completion::Kind::kSend;
      break;
    case hsn::Event::Type::kRdmaWriteComplete:
      c.kind = Completion::Kind::kRmaWrite;
      break;
    case hsn::Event::Type::kRdmaReadComplete: {
      c.kind = Completion::Kind::kRmaRead;
      const auto it = pending_reads_.find(e.op_id);
      if (it != pending_reads_.end()) {
        if (!e.data.empty() && !it->second.empty()) {
          std::memcpy(it->second.data(), e.data.data(),
                      std::min<std::size_t>(it->second.size(), e.data.size()));
        }
        pending_reads_.erase(it);
      }
      break;
    }
    case hsn::Event::Type::kError:
      c.kind = Completion::Kind::kError;
      c.status = std::move(e.status);
      pending_reads_.erase(e.op_id);  // the data will never arrive
      break;
  }
  cq_.push_back(std::move(c));
}

void Endpoint::stash_unexpected(hsn::Packet&& p) {
  if (unexpected_.size() >= kMaxUnexpected) unexpected_.pop_front();
  unexpected_.push_back(std::move(p));
}

std::size_t Endpoint::progress() {
  std::size_t processed = 0;
  while (true) {
    auto pkt = nic_.poll_rx(hw_.ep);
    if (!pkt.is_ok()) break;
    hsn::Packet p = std::move(pkt).value();
    if (!match_posted(p)) stash_unexpected(std::move(p));
    ++processed;
  }
  // Drain the NIC event queue too: RMA completions (ACKs, read data,
  // NACKs) surface as CQ entries the same way receives do.
  while (true) {
    auto ev = nic_.poll_event(hw_.ep);
    if (!ev.is_ok()) break;
    cq_push_from(std::move(ev).value());
    ++processed;
  }
  return processed;
}

std::optional<Completion> Endpoint::cq_read() {
  progress();
  if (cq_.empty()) return std::nullopt;
  Completion c = cq_.front();
  cq_.pop_front();
  return c;
}

Result<Completion> Endpoint::cq_sread() {
  if (auto c = cq_read()) return *c;
  return Result<Completion>(timeout_error("cq_sread: no completion"));
}

Result<RecvResult> Endpoint::trecv_sync(std::uint64_t tag,
                                        std::span<std::byte> buffer) {
  const auto take = [&](const hsn::Packet& p) {
    if (!p.payload.empty() && !buffer.empty()) {
      std::memcpy(buffer.data(), p.payload.data(),
                  std::min<std::size_t>(buffer.size(), p.payload.size()));
    }
    return RecvResult{p.size_bytes, p.tag, FiAddr{p.src, p.src_ep},
                      p.arrival_vt + timing_->rx_overhead()};
  };
  // 1. Unexpected queue first (messages that raced ahead of the post).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!tag_matches(tag, it->tag)) continue;
    const RecvResult r = take(*it);
    unexpected_.erase(it);
    return r;
  }
  // 2. Then what has arrived since, in order.
  for (auto pkt = nic_.poll_rx(hw_.ep); pkt.is_ok();
       pkt = nic_.poll_rx(hw_.ep)) {
    if (tag_matches(tag, pkt.value().tag)) return take(pkt.value());
    stash_unexpected(std::move(pkt).value());
  }
  return Result<RecvResult>(timeout_error("trecv_sync: no matching message"));
}

Result<hsn::RKey> Endpoint::mr_reg(std::span<std::byte> region) {
  return nic_.register_mr(hw_.ep, region);
}

Status Endpoint::mr_close(hsn::RKey key) { return nic_.deregister_mr(key); }

Result<std::uint64_t> Endpoint::post_rma_write(
    hsn::NicAddr dst, hsn::RKey rkey, std::uint64_t offset,
    std::span<const std::byte> payload, std::uint64_t size, SimTime vt) {
  const std::uint64_t op = next_op_++;
  auto accepted =
      nic_.rdma_write(hw_.ep, dst, rkey, offset, size, payload, vt, op);
  if (!accepted.is_ok()) return Result<std::uint64_t>(accepted.status());
  return op;
}

Result<std::uint64_t> Endpoint::post_rma_read(hsn::NicAddr dst,
                                              hsn::RKey rkey,
                                              std::uint64_t offset,
                                              std::uint64_t size,
                                              std::span<std::byte> out,
                                              SimTime vt) {
  const std::uint64_t op = next_op_++;
  auto accepted = nic_.rdma_read(hw_.ep, dst, rkey, offset, size, vt, op);
  if (!accepted.is_ok()) return Result<std::uint64_t>(accepted.status());
  pending_reads_.emplace(op, out);
  return op;
}

Result<SimTime> Endpoint::await_rma(std::uint64_t op) {
  progress();
  for (auto it = cq_.begin(); it != cq_.end(); ++it) {
    if (it->op_id != op) continue;
    const Completion c = *it;
    cq_.erase(it);
    if (c.kind == Completion::Kind::kError) return Result<SimTime>(c.status);
    return c.vt;
  }
  return Result<SimTime>(timeout_error(
      "await_rma: no completion (is the target MR registered on this "
      "VNI?)"));
}

Result<SimTime> Endpoint::rma_write_sync(hsn::NicAddr dst, hsn::RKey rkey,
                                         std::uint64_t offset,
                                         std::span<const std::byte> payload,
                                         std::uint64_t size, SimTime vt) {
  auto op = post_rma_write(dst, rkey, offset, payload, size, vt);
  if (!op.is_ok()) return Result<SimTime>(op.status());
  return await_rma(op.value());
}

Result<SimTime> Endpoint::rma_read_sync(hsn::NicAddr dst, hsn::RKey rkey,
                                        std::uint64_t offset,
                                        std::uint64_t size,
                                        std::vector<std::byte>& out,
                                        SimTime vt) {
  out.resize(size);
  auto op = post_rma_read(dst, rkey, offset, size, out, vt);
  if (!op.is_ok()) return Result<SimTime>(op.status());
  return await_rma(op.value());
}

}  // namespace shs::ofi
