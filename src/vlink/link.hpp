// Virtual link: an ordered, connection-oriented byte stream between two
// nodes, the abstraction every middleware in the stack talks to.
//
// `Link` is the polymorphic base: it owns receive-side reassembly (a
// stream buffer — usually the last delivered frame, adopted without a
// copy, or a shared tail read in place — plus a FIFO of pending
// `read_n` requests) and delegates the send side to the concrete
// transport via `send_bytes` and `send_shared`: a write is one copied
// `ByteView` or one by-reference `SharedBytes` (core/bytes.hpp).  The
// adapter layers (VRP, AdOC, parallel streams) subclass it and keep
// the same user-facing surface.  A link keeps no traffic totals: its
// driver counts every frame in the engine's obs registry (`vlink.tx.*`
// and `vlink.rx.*`), and a FrameDriver's link carries the connection's
// own state (id, pacing horizon, pending connect) instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/task.hpp"
#include "core/time.hpp"

namespace padico::vlink {

class Link {
 public:
  Link(core::NodeId remote_node, core::Port local_port, core::Port remote_port)
      : remote_node_(remote_node),
        local_port_(local_port),
        remote_port_(remote_port) {}
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;
  virtual ~Link() = default;

  core::NodeId remote_node() const noexcept { return remote_node_; }
  core::Port local_port() const noexcept { return local_port_; }
  core::Port remote_port() const noexcept { return remote_port_; }

  /// Queue `data` for transmission and return immediately; the wire
  /// paces delivery in virtual time.  Bytes arrive in post order.  The
  /// caller may reuse `data`'s storage at once: it is copied.  A
  /// message made of parts is built in one buffer and posted as one
  /// view.
  void post_write(core::ByteView data) { send_bytes(data); }

  /// Shared variant: `data` never changes, so a transport may carry it
  /// by reference to the reading link instead of copying it.
  void post_write(core::SharedBytes data) { send_shared(std::move(data)); }

  /// Await exactly `n` bytes from the stream.  Requests are served in
  /// FIFO order; each returns a buffer of exactly `n` bytes.
  ///
  /// Lifetime rule: the receive path executes ON the link (the
  /// transport's delivery, and for striped links a member reader
  /// coroutine), so a continuation resumed by a read must not destroy
  /// the link it just read from — hold the link across the await and
  /// drop it from outside the delivery chain (e.g. an engine event),
  /// like every other "X must outlive the run loop" rule in this
  /// stack.
  core::Completion<core::Bytes> read_n(std::size_t n);

  /// Bytes buffered and not yet claimed by a read.
  std::size_t available() const noexcept { return stream().size() - rx_head_; }

  /// Synchronously take everything buffered (may be empty).  The
  /// loss-tolerant consumers use this with a ready handler instead of
  /// read_n: on a link allowed to *lose* bytes, "exactly n" can never
  /// complete — "whatever arrived" can.
  ///
  /// Zero-copy: the view points into the link's stream buffer, often
  /// the very frame buffer or shared tail the transport delivered.  It
  /// is valid until the link's next delivery or read, or its
  /// destruction; fetched in the ready handler, until that handler
  /// returns.  Consume it there, never stash it.
  core::ByteView read_available();

  /// `fn` fires after every delivery and on end-of-stream — the
  /// edge-triggered companion of read_available().  Like a read's
  /// continuation, it must not destroy the link it fires on.
  void set_ready_handler(std::function<void()> fn) {
    ready_handler_ = std::move(fn);
  }

  /// Datagram mode: route each delivered transport message to `fn`
  /// whole instead of appending it to the stream buffer.  Adapters
  /// stacked on a base link (VRP, AdOC) use this to get framed-message
  /// semantics: a lost wire message then drops one *frame* the adapter
  /// header can account for, where a byte stream could never resync.
  /// Every adapter reads its establishment hello this way; a nullptr
  /// `fn` switches the link back to stream mode (pstream sub-links).
  void set_datagram_handler(std::function<void(core::ByteView)> fn) {
    datagram_handler_ = std::move(fn);
  }

  /// True once the peer's end-of-stream marker resolved (only
  /// transports with a teardown protocol, e.g. VRP, ever set it).
  bool eof_seen() const noexcept { return eof_; }

  /// Begin an orderly close of the write side.  Default: no-op (the
  /// baseline transports have no teardown protocol).
  virtual void post_close() {}

 protected:
  /// Transport hook: actually emit `data` towards the peer.
  virtual void send_bytes(core::ByteView data) = 0;

  /// Transport hook for post_write(SharedBytes).  The default copies
  /// through send_bytes; a transport that can carry the block by
  /// reference overrides it.
  virtual void send_shared(core::SharedBytes data) { send_bytes(data.view()); }

  /// Called by the transport when a message arrives from the peer:
  /// `frame[offset..]` then `tail` is the payload.  The link takes the
  /// buffer by ownership.  In stream mode a drained link adopts it as
  /// its stream buffer (no copy; reads start at `offset`); when the
  /// frame carries no payload past `offset`, the link reads `tail` in
  /// place instead (no copy either) and drops its reference once its
  /// readers consumed it.  Anything else is appended: the payload and
  /// tail bytes of a frame that carries both, and every delivery to a
  /// link still holding unread bytes, which first copies unread tail
  /// bytes out so the stream stays in FIFO order.  Returns storage the
  /// caller may recycle (BytesPool::release), no view into it live any
  /// more: the stream buffer itself when this delivery's reads and
  /// ready handler consumed everything, else what the adoption
  /// displaced or the appended `frame`.  In datagram mode the handler
  /// sees the payload flattened into `frame`, and `frame` comes back.
  core::Bytes deliver(core::Bytes frame, std::size_t offset,
                      core::SharedBytes tail = {});

  /// Transport hook: the peer finished its write side.  Flags
  /// eof_seen() and fires the ready handler once.
  void mark_eof();

 private:
  /// The stream buffer: the shared tail while one is in place, else
  /// the owned buffer.  `rx_head_` indexes into it.
  core::ByteView stream() const noexcept {
    return rx_tail_.empty() ? core::view_of(rx_buf_) : rx_tail_.view();
  }
  core::Bytes take(std::size_t n);
  void drain();

  struct PendingRead {
    std::size_t n;
    core::Completion<core::Bytes> completion;
  };

  core::NodeId remote_node_;
  core::Port local_port_;
  core::Port remote_port_;
  core::Bytes rx_buf_;
  // 32 bits (no link buffers 4 GiB) and beside eof_, so the tail
  // handle fits without growing the link: a FrameLink stays in its
  // 208 B malloc chunk.
  std::uint32_t rx_head_ = 0;
  bool eof_ = false;
  core::SharedBytes rx_tail_;  // in place of rx_buf_ while non-empty
  // FIFO; a vector, not a deque, so an idle link allocates nothing
  // (every reader in the tree awaits one read at a time, so erasing
  // the front is cheap).
  std::vector<PendingRead> pending_;
  std::function<void()> ready_handler_;
  std::function<void(core::ByteView)> datagram_handler_;
};

}  // namespace padico::vlink
