// NetDriver: the baseline driver that carries vlink connections
// directly over one simulated network.
//
// Framing is the shared 24-byte wire header (see vlink/wire.hpp)
// followed by the payload, one simnet message per frame.  The header
// bytes ride inside the simnet payload, so multiplexing overhead shows
// up in the timing for free — exactly the effect the MadIO
// header-combining experiments measure higher in the stack.  A shared
// write's block travels as the simnet message's tail, by reference:
// the frame is then the bare header, and the receiving link reads the
// block in place.  Every instant reads head + tail, so it lands when
// the same bytes copied into the frame would.
//
// Per-stream pacing: when the network profile carries a
// `per_stream_bytes_per_second` cap (the window-limited-TCP model of
// the WAN profiles), each connection pays that rate on its own frames
// before they reach the shared NIC FIFO — so one socket cannot fill
// the pipe, several in parallel can, and the "pstream" driver's gain
// is measured rather than asserted.  A paced frame's closure (network,
// two node ids, the head and the tail handle) is exactly EventFn's
// 48 B inline budget.  Pacing is per (sender,
// connection): each frame advances the horizon the connection's link
// carries, control frames included (the connect and accept frames on
// the link that then writes through it, a refuse on none), and the
// horizon dies with the link.
//
// An optional dispatch hook defers frame handling to an external
// scheduler: the Grid installs the node's net::Arbitration here so
// that IP-side ("sysio") traffic contends with SAN-side traffic under
// the paper's SysIO/MadIO interleaving policy.  The hook takes a parked
// engine node handle, so the frame's closure is built once and vlink
// needs no type from the net layer.
#pragma once

#include <cstdint>
#include <functional>

#include "simnet/network.hpp"
#include "vlink/frame_driver.hpp"

namespace padico::vlink {

class NetDriver final : public FrameDriver {
 public:
  static constexpr std::size_t kHeaderSize = wire::kHeaderSize;

  /// Registers itself as `net`'s receiver for `host.id()`.
  NetDriver(core::Host& host, simnet::Network& net, std::string name);
  ~NetDriver() override;

  /// Route each received frame through `fn` instead of handling it
  /// inline.  The frame's closure is built once, parked on the host's
  /// engine (core::Engine::park), and `fn` takes over its handle: it
  /// must eventually run it (Engine::run_parked) or drop it.
  using DispatchFn = std::function<void(std::uint32_t parked)>;
  void set_dispatch(DispatchFn fn) { dispatch_ = std::move(fn); }

  bool reaches(core::NodeId node) const override;

  bool lossy() const override { return net_->model().loss_rate > 0.0; }

  simnet::Network& network() const noexcept { return *net_; }

 protected:
  void emit(core::NodeId dst, const wire::Header& h, core::ByteView payload,
            core::SimTime& horizon, core::SharedBytes tail) override;

 private:
  void on_message(core::NodeId src, core::Bytes msg, core::SharedBytes tail);

  /// Occupancy of `bytes` on one window-limited stream (same framing
  /// math as Network::tx_time, at the per-stream rate).
  core::Duration stream_time(std::size_t bytes) const;

  simnet::Network* net_;
  DispatchFn dispatch_;
};

}  // namespace padico::vlink
