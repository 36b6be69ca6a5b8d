#include "drivers/san_driver.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace padico::drv {

SanDriver::SanDriver(core::Host& host, simnet::Fabric& fabric,
                     simnet::NetId net)
    : host_(&host), net_(&fabric.network(net)) {
  // GM-style drivers assume the SAN hardware is reliable and in-order;
  // the layers above (MadIO header pairing, rendezvous) depend on it.
  // Lossy paths belong to the IP drivers and, later, VRP.
  if (net_->model().loss_rate != 0.0) {
    throw std::invalid_argument("SanDriver: network '" + net_->model().name +
                                "' is lossy; SAN drivers require a reliable "
                                "network");
  }
  net_->set_receiver(host_->id(), [this](core::NodeId src, core::Bytes msg,
                                         core::SharedBytes tail) {
    on_wire(src, std::move(msg), std::move(tail));
  });
}

SanDriver::~SanDriver() { net_->set_receiver(host_->id(), nullptr); }

bool SanDriver::reaches(core::NodeId node) const {
  return node != host_->id() && net_->attached(node);
}

void SanDriver::send(core::NodeId dst, core::Bytes frame,
                     core::SharedBytes tail) {
  if (frame.size() < kFrameHeader) {
    throw std::invalid_argument(
        "SanDriver::send(): a " + std::to_string(frame.size()) +
        "-byte frame has no room for the " + std::to_string(kFrameHeader) +
        "-byte header");
  }
  Pending msg{std::move(frame), std::move(tail), next_seq_++};
  auto it = stalled_.find(dst);
  if (it != stalled_.end()) {
    it->second.push_back(std::move(msg));  // behind the rendezvous
  } else if (!start(dst, msg)) {
    stalled_[dst].push_back(std::move(msg));
  }
}

bool SanDriver::start(core::NodeId dst, Pending& msg) {
  if (msg.frame.size() - kFrameHeader + msg.tail.size() > kEagerThreshold) {
    // Rendezvous: ask first; the message, and every later one to
    // `dst`, waits for the ACK so nothing overtakes the large one.
    ++rendezvous_sent_;
    emit(dst, kReq, msg.seq, core::Bytes(kFrameHeader));
    return false;
  }
  ++eager_sent_;
  emit(dst, kEager, msg.seq, std::move(msg.frame), std::move(msg.tail));
  return true;
}

void SanDriver::on_ack(core::NodeId src, std::uint32_t seq) {
  auto it = stalled_.find(src);
  // Only the ACK echoing the announced message releases it; a stale or
  // forged one is dropped.
  if (it == stalled_.end() || it->second.front().seq != seq) return;
  std::deque<Pending>& queue = it->second;
  emit(src, kData, seq, std::move(queue.front().frame),
       std::move(queue.front().tail));
  queue.pop_front();
  while (!queue.empty()) {
    if (!start(src, queue.front())) return;  // the next rendezvous
    queue.pop_front();
  }
  stalled_.erase(it);
}

void SanDriver::emit(core::NodeId dst, FrameType type, std::uint32_t seq,
                     core::Bytes frame, core::SharedBytes tail) {
  frame[0] = type;
  std::memset(frame.data() + 1, 0, 3);
  std::memcpy(frame.data() + 4, &seq, sizeof(seq));
  // Host-side injection: the CPU serialises message preparation, so
  // back-to-back small sends pay per-message cost additively.
  core::Engine& eng = host_->engine();
  const core::Duration cost =
      kPerMessage + static_cast<core::Duration>(std::llround(
                        kPerByteNs *
                        static_cast<double>(frame.size() + tail.size())));
  cpu_busy_until_ = std::max(cpu_busy_until_, eng.now()) + cost;
  auto inject = [this, dst, frame = std::move(frame),
                 tail = std::move(tail)]() mutable {
    net_->send(host_->id(), dst, std::move(frame), std::move(tail));
  };
  // One injection closure per SAN message: it must stay inside
  // EventFn's inline budget, or every message pays a heap allocation.
  static_assert(sizeof(inject) <= core::EventFn::kInlineSize);
  eng.schedule_at(cpu_busy_until_, std::move(inject));
}

void SanDriver::on_wire(core::NodeId src, core::Bytes frame,
                        core::SharedBytes tail) {
  if (frame.size() < kFrameHeader) return;  // malformed; drop
  std::uint32_t seq = 0;
  std::memcpy(&seq, frame.data() + 4, sizeof(seq));
  switch (frame[0]) {
    case kReq:
      frame.resize(kFrameHeader);  // the ACK reuses the REQ's buffer
      emit(src, kAck, seq, std::move(frame));
      return;
    case kAck:
      on_ack(src, seq);
      return;
    case kEager:
    case kData:
      if (recv_) recv_(src, std::move(frame), kFrameHeader, std::move(tail));
      return;
    default:
      return;  // unknown frame type; drop
  }
}

}  // namespace padico::drv
