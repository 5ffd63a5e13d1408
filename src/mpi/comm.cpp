#include "mpi/comm.hpp"

#include <algorithm>

namespace shs::mpi {

std::unique_ptr<Communicator> Communicator::create(
    std::vector<ofi::Endpoint*> endpoints) {
  auto comm = std::unique_ptr<Communicator>(new Communicator());
  comm->addrs_.reserve(endpoints.size());
  for (const auto* ep : endpoints) comm->addrs_.push_back(ep->addr());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    comm->ranks_.push_back(std::make_unique<RankContext>(
        comm.get(), static_cast<int>(i), endpoints[i]));
  }
  return comm;
}

int RankContext::size() const noexcept { return comm_->size(); }

Status RankContext::send(int dst, std::uint32_t tag,
                         std::span<const std::byte> data,
                         std::uint64_t size) {
  if (dst < 0 || dst >= comm_->size()) {
    return invalid_argument("bad rank");
  }
  auto r = ep_->tsend(comm_->addr_of(dst), wire_tag(rank_, tag), data, size,
                      vt_);
  if (!r.is_ok()) return r.status();
  vt_ = r.value();
  return Status::ok();
}

Result<RecvInfo> RankContext::recv(int src, std::uint32_t tag,
                                   std::span<std::byte> buffer) {
  if (src < 0 || src >= comm_->size()) {
    return Result<RecvInfo>(invalid_argument("bad rank"));
  }
  auto r = ep_->trecv_sync(wire_tag(src, tag), buffer);
  if (!r.is_ok()) return Result<RecvInfo>(r.status());
  // Lamport merge: the local clock jumps to the arrival time if the
  // message was still in flight.
  vt_ = std::max(vt_, r.value().vt);
  return RecvInfo{r.value().size, src};
}

}  // namespace shs::mpi
