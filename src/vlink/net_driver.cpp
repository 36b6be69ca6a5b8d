#include "vlink/net_driver.hpp"

#include <algorithm>
#include <utility>

namespace padico::vlink {

NetDriver::NetDriver(core::Host& host, simnet::Network& net, std::string name)
    : FrameDriver(host, std::move(name)), net_(&net) {
  net_->set_receiver(host.id(), [this](core::NodeId src, core::Bytes msg,
                                       core::SharedBytes tail) {
    on_message(src, std::move(msg), std::move(tail));
  });
}

NetDriver::~NetDriver() {
  net_->set_receiver(host().id(), nullptr);
}

bool NetDriver::reaches(core::NodeId node) const {
  return node != host().id() && net_->attached(node);
}

core::Duration NetDriver::stream_time(std::size_t bytes) const {
  const std::uint64_t wire =
      bytes + net_->frames_for(bytes) * net_->model().frame_overhead;
  const std::uint64_t bps =
      std::max<std::uint64_t>(net_->model().per_stream_bytes_per_second, 1);
  return (wire * 1'000'000'000ull + bps - 1) / bps;
}

void NetDriver::emit(core::NodeId dst, const wire::Header& h,
                     core::ByteView payload, core::SimTime& horizon,
                     core::SharedBytes tail) {
  // Frames come out of the engine's recycled-buffer pool; the
  // receiving side recycles each frame's storage (see handle_frame),
  // so steady-state frame traffic allocates nothing.  The tail rides
  // by reference, so a shared write's bytes are never copied.
  core::Bytes frame =
      wire::encode(h, payload, host().engine().bytes_pool());
  if (net_->model().per_stream_bytes_per_second == 0) {
    net_->send(host().id(), dst, std::move(frame), std::move(tail));
    return;
  }
  // Window-limited stream: this connection's frames queue behind each
  // other at the per-stream rate before touching the shared NIC.  Per
  // connection the release instants are monotone and same-instant
  // events run FIFO, so frame order within a stream is preserved.
  core::Engine& engine = host().engine();
  const core::SimTime start = std::max(engine.now(), horizon);
  horizon = start + stream_time(frame.size() + tail.size());
  if (start == engine.now()) {
    net_->send(host().id(), dst, std::move(frame), std::move(tail));
    return;
  }
  // Deliberately NOT capturing `this`: the driver may die before the
  // engine fires a paced frame (links outlive drivers by contract),
  // while the network — owned by the fabric, declared above every
  // driver — outlives any engine run a test can still perform.
  auto paced = [net = net_, src = host().id(), dst, f = std::move(frame),
                t = std::move(tail)]() mutable {
    net->send(src, dst, std::move(f), std::move(t));
  };
  // One paced closure per frame: it must stay inside EventFn's inline
  // budget, or every paced frame pays a heap allocation.
  static_assert(sizeof(paced) <= core::EventFn::kInlineSize);
  engine.schedule_at(start, std::move(paced));
}

void NetDriver::on_message(core::NodeId src, core::Bytes msg,
                           core::SharedBytes tail) {
  // The message is one whole frame; handle_frame takes it (its link
  // adopts the buffer and the tail) and recycles what is left into the
  // engine pool emit() acquired it from.
  if (!dispatch_) {
    handle_frame(src, std::move(msg), 0, std::move(tail));
    return;
  }
  auto handle = [this, src, m = std::move(msg),
                 t = std::move(tail)]() mutable {
    handle_frame(src, std::move(m), 0, std::move(t));
  };
  // Every arbitrated frame: inside EventFn's inline budget too.  It is
  // built once, in its parked node, and runs there.
  static_assert(sizeof(handle) <= core::EventFn::kInlineSize);
  dispatch_(host().engine().park(std::move(handle)));
}

}  // namespace padico::vlink
