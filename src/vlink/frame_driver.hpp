// FrameDriver: the transport-agnostic half of a connection-oriented
// vlink driver.
//
// Every driver of the stack frames its traffic the same way — a
// wire::Header (connect / accept / refuse / data) followed by stream
// payload — and keeps the same books: listeners by port, and one
// connection table keyed by connection id whose entry holds the link,
// the connect callback while our own connect is in flight, and the
// stream's pacing horizon.  FrameDriver owns all of that; a concrete
// driver only supplies `emit()` (push one frame towards a peer) and
// `reaches()`.  NetDriver emits straight onto a simulated network and
// paces through the horizon; MadIODriver emits through the MadIO
// arbitration stack and ignores it.
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

  /// Connection-table entries: live links plus connects in flight.
  std::size_t connections() const noexcept { return conns_.size(); }

  /// Frames dropped as malformed (see handle_frame).
  std::uint64_t malformed_frames() const noexcept { return malformed_; }

 protected:
  /// `pooled_frames`: the transport's frames come from the engine's
  /// BytesPool (emit() acquires them there), so storage of received
  /// frames goes back to it.  Otherwise frames are plain allocations,
  /// and that storage is freed.
  FrameDriver(core::Host& host, std::string name, bool pooled_frames);

  core::Host& host() const noexcept { return *host_; }

  /// Transport hook: deliver one encoded frame to `dst`.  `horizon`
  /// is the connection's pacing horizon: the instant its stream is
  /// free again, 0 until a paced frame moves it.  A transport that caps
  /// each stream's rate advances it; others ignore it.
  virtual void emit(core::NodeId dst, const wire::Header& h,
                    core::ByteView payload, core::SimTime& horizon) = 0;

  /// Entry point for the transport: parse and act on one received
  /// frame, `frame[offset..]` (the bytes before `offset` are the
  /// transport's own headers).  The driver takes the buffer: a data
  /// frame's link adopts it (see Link::deliver), and whatever storage
  /// is left over is recycled (see `pooled_frames`).  Malformed frames
  /// are counted and dropped, and so is a connect frame for an id the
  /// table already holds: a live connection is never re-bound.
  void handle_frame(core::NodeId src, core::Bytes frame, std::size_t offset);

 private:
  class FrameLink;
  friend class FrameLink;

  /// One connection: created by connect() or by an accepted connect
  /// frame, erased by its link's destructor or by a refuse.
  struct Conn {
    FrameLink* link = nullptr;  // null while our own connect is in flight
    ConnectFn on_connect;       // set only while it is
    core::SimTime horizon = 0;  // see emit()
  };

  core::Host* host_;
  // Per-frame lookups (every data frame probes conns_, every connect
  // probes listeners_) — hash maps, not trees.  Nothing
  // event-ordering-dependent ever iterates them: only the destructor
  // walks conns_, to detach.  A FrameLink points at its own entry,
  // which stays put: unordered_map nodes never move.
  std::unordered_map<core::Port, AcceptFn> listeners_;
  std::unordered_map<std::uint64_t, Conn> conns_;
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
