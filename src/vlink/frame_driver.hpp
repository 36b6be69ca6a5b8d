// FrameDriver: the transport-agnostic half of a connection-oriented
// vlink driver.
//
// Every driver of the stack frames its traffic the same way — a
// wire::Header (connect / accept / refuse / data) followed by stream
// payload — and keeps the same books: listeners by port, and one
// connection index from connection id to link.  The link is the
// connection's whole state: it carries its id, its peer, the stream's
// pacing horizon and, while our own connect is in flight, the connect
// callback.  connect() creates the link at once and the driver owns it
// until the accept hands it to that callback (a refuse, or the
// driver's death, deletes it with the callback unrun); an accepted
// connect frame's link goes straight to the listener.  A link erases
// its own index slot when it dies.  Accept, refuse and data frames must
// come from the link's peer.  FrameDriver owns all of that; a concrete
// driver only supplies `emit()` (push one frame towards a peer) and
// `reaches()`.  NetDriver emits straight onto a simulated network and
// paces through the horizon; MadIODriver emits through the MadIO
// arbitration stack and ignores it.  A data frame is a 24-byte header,
// the bytes of a `post_write(ByteView)` copied behind it, or the block
// of a `post_write(SharedBytes)` as a tail that rides the frame by
// reference (NetDriver passes it to simnet, MadIODriver to the SAN
// driver behind the message's pooled head).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

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

  /// Indexed connections: live links plus connects in flight.
  std::size_t connections() const noexcept { return conns_.size(); }

  /// Frames dropped as malformed (see handle_frame).
  std::uint64_t malformed_frames() const noexcept { return malformed_; }

 protected:
  /// Both transports take their frames from the engine's BytesPool,
  /// so storage of received frames goes back to it.
  FrameDriver(core::Host& host, std::string name);

  core::Host& host() const noexcept { return *host_; }

  /// Transport hook: deliver one frame to `dst`, the header `h` then
  /// `payload` (copied) then `tail` (shared: a transport that can
  /// carries it by reference, and the frame's size is the sum).
  /// `horizon` is the connection's pacing horizon: the instant its
  /// stream is free again, 0 until a paced frame moves it.  A transport
  /// that caps each stream's rate advances it; others ignore it.
  virtual void emit(core::NodeId dst, const wire::Header& h,
                    core::ByteView payload, core::SimTime& horizon,
                    core::SharedBytes tail) = 0;

  /// Entry point for the transport: parse and act on one received
  /// frame, `frame[offset..]` then `tail` (the bytes before `offset`
  /// are the transport's own headers), sent by node `src`.  The driver
  /// takes the buffer: a data frame's link adopts it and the tail (see
  /// Link::deliver), and whatever storage is left over goes back to
  /// the engine's BytesPool.  Counted and dropped: malformed frames, a
  /// connect frame for an id the index already holds (a live
  /// connection is never re-bound), and an accept, refuse or data
  /// frame whose `src` is not its connection's peer.
  void handle_frame(core::NodeId src, core::Bytes frame, std::size_t offset,
                    core::SharedBytes tail = {});

 private:
  class FrameLink;
  friend class FrameLink;

  /// The link of connection `id` if `src` is its peer.  Null when there
  /// is none (a stale frame), and, counted malformed, when `src` is not
  /// its peer.
  FrameLink* link_from(core::NodeId src, std::uint64_t id);

  /// Connection id -> link: a flat open-addressing table (power-of-two
  /// capacity, linear probing, load at most 3/4, backward-shift erase,
  /// so no tombstones), laid out like net::SeqBook.  Allocates nothing
  /// until the first insert and never shrinks.  Nothing iterates it but
  /// the driver's destructor, so slot order never reaches a trace.
  class ConnIndex {
   public:
    std::size_t size() const noexcept { return size_; }
    /// The link of connection `id`, or null.
    FrameLink* find(std::uint64_t id) const noexcept;
    /// `id` must be absent.
    void insert(std::uint64_t id, FrameLink* link);
    /// `id` must be present.
    void erase(std::uint64_t id) noexcept;
    template <typename Fn>
    void for_each(Fn fn) const {
      for (const Slot& s : slots_) {
        if (s.link) fn(s.link);
      }
    }

   private:
    struct Slot {
      std::uint64_t id = 0;
      FrameLink* link = nullptr;  // null: the slot is free
    };
    static constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t home(std::uint64_t id) const noexcept;
    /// The slot holding `id`, or kNone.
    std::size_t locate(std::uint64_t id) const noexcept;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  core::Host* host_;
  // Per-frame lookups: every frame probes conns_, every connect frame
  // probes listeners_.
  std::unordered_map<core::Port, AcceptFn> listeners_;
  ConnIndex conns_;
  std::uint64_t next_conn_ = 1;
  std::uint64_t malformed_ = 0;
  core::Port next_ephemeral_ = 49152;
  // obs instrumentation: node-wide vlink traffic totals.
  obs::Counter* obs_frames_tx_;
  obs::Counter* obs_bytes_tx_;
  obs::Counter* obs_frames_rx_;
  obs::Counter* obs_bytes_rx_;
};

}  // namespace padico::vlink
