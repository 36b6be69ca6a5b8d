// FrameDriver: the transport-agnostic half of a connection-oriented
// vlink driver.
//
// Every driver of the stack frames its traffic the same way — a
// wire::Header (connect / accept / refuse / data) followed by stream
// payload — and keeps the same books: listeners by port, links by
// connection id, in-flight connects by connection id.  FrameDriver owns
// all of that; a concrete driver only supplies `emit()` (push one frame
// towards a peer) and `reaches()`.  NetDriver emits straight onto a
// simulated network; MadIODriver emits through the MadIO arbitration
// stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "core/host.hpp"
#include "vlink/driver.hpp"
#include "vlink/link.hpp"
#include "vlink/wire.hpp"

namespace padico::vlink {

class FrameDriver : public Driver {
 public:
  ~FrameDriver() override;

  void listen(core::Port port, AcceptFn on_accept) override;
  void unlisten(core::Port port) override;
  bool listening(core::Port port) const override {
    return listeners_.count(port) != 0;
  }
  void connect(const RemoteAddr& remote, ConnectFn on_connect) override;

 protected:
  /// `pooled_frames`: the transport's frames come from the engine's
  /// BytesPool (emit() acquires them there), so storage of received
  /// frames goes back to it.  Otherwise frames are plain allocations,
  /// and that storage is freed.
  FrameDriver(core::Host& host, std::string name, bool pooled_frames);

  core::Host& host() const noexcept { return *host_; }

  /// Transport hook: deliver one encoded frame to `dst`.
  virtual void emit(core::NodeId dst, const wire::Header& h,
                    core::ByteView payload) = 0;

  /// Entry point for the transport: parse and act on one received
  /// frame, `frame[offset..]` (the bytes before `offset` are the
  /// transport's own headers).  The driver takes the buffer: a data
  /// frame's link adopts it (see Link::deliver), and whatever storage
  /// is left over is recycled (see `pooled_frames`).  Malformed frames
  /// are counted and dropped.
  void handle_frame(core::NodeId src, core::Bytes frame, std::size_t offset);

  /// Hook: the link bound to `conn_id` is gone (destroyed or the
  /// connection was torn down); transports drop per-connection state
  /// (NetDriver's per-stream pacing bucket) here.
  virtual void on_connection_closed(std::uint64_t conn_id) {
    (void)conn_id;
  }

  std::uint64_t malformed_frames() const noexcept { return malformed_; }

 private:
  class FrameLink;
  friend class FrameLink;

  void forget(std::uint64_t conn_id);

  core::Host* host_;
  // Per-frame lookups (every data frame probes links_, every connect
  // probes listeners_) — hash maps, not trees.  Nothing
  // event-ordering-dependent ever iterates them: only the destructor
  // walks links_, to detach.
  std::unordered_map<core::Port, AcceptFn> listeners_;
  std::unordered_map<std::uint64_t, FrameLink*> links_;
  std::unordered_map<std::uint64_t, ConnectFn> connecting_;
  std::uint64_t next_conn_ = 1;
  std::uint64_t malformed_ = 0;
  core::Port next_ephemeral_ = 49152;
  // Next to the 16-bit port, in what would be padding: a 10k-node grid
  // has ~20k drivers, and a wider driver shows in its peak RSS.
  bool pooled_frames_;
  // obs instrumentation: node-wide vlink traffic totals (per-link
  // totals live on the Link itself).
  obs::Counter* obs_tx_frames_;
  obs::Counter* obs_tx_bytes_;
  obs::Counter* obs_rx_frames_;
  obs::Counter* obs_rx_bytes_;
};

}  // namespace padico::vlink
