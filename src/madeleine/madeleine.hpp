// Minimal Madeleine: channels + incremental pack/unpack over the SAN
// driver — the interface MadIO (and later the circuit layer) builds on.
//
// A Channel is a logical communication context; both sides of a
// symmetric program open channels in the same order and matching ids
// talk to each other (Madeleine's channels are created collectively).
// `begin_packing` opens a message towards one destination; `pack`
// appends segments under a SendMode; `end_packing` flushes the whole
// message as ONE driver message — so however many layers contributed
// segments, the wire sees a single hardware message.  That property is
// what makes MadIO's header combining possible one layer up.
//
// Wire format per message (host byte order):
//   [u8 magic 0x4D][u8 channel][u16 segment count][u32 payload bytes]
// followed by the concatenated segments (8 header bytes total).
// `end_packing` builds it in one buffer behind the SAN driver's
// headroom; the driver sends that buffer and the receiving Madeleine
// wraps it, driver header included, in the UnpackHandle — a message
// crosses the SAN with one copy, the gather at flush time.
//
// Channel establishment is one shared path: `open_channel()` takes the
// lowest free id (MadIO's bootstrap channel 0), `open_channel_at(id)`
// pins an explicit id (the circuit layer's grid-allocated channels);
// both funnel through the same registration so ids can never collide.
//
// Units / ownership / determinism: all timing below this API is
// virtual nanoseconds charged by the SAN driver and simnet (this layer
// adds no time of its own).  Channels are owned by their Madeleine and
// live until closed or until it dies; PackHandle borrows caller
// storage for later/cheaper segments until end_packing; UnpackHandle
// owns its buffer.  All routing state lives in one ordered map (each
// open channel with its handler) and handlers run inline from driver
// delivery, so traces are bit-identical across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/host.hpp"
#include "drivers/san_driver.hpp"

namespace padico::mad {

class Madeleine;

/// How urgently a packed segment must be copied / delivered — the
/// classic Madeleine triad.  In the simulation, `safer` copies the
/// segment immediately (the caller may reuse the buffer), while `later`
/// and `cheaper` borrow the caller's storage until end_packing flushes.
enum class SendMode : std::uint8_t {
  safer,    // copy now, deliverable any time
  later,    // borrowed until end_packing
  cheaper,  // borrowed; transport picks the cheapest strategy
};

/// Logical communication context, owned by its Madeleine instance.
struct Channel {
  std::uint8_t id;
};

/// An open outgoing message.  Move-only; finished by
/// Madeleine::end_packing.
class PackHandle {
 public:
  PackHandle(PackHandle&&) = default;
  PackHandle& operator=(PackHandle&&) = default;

  /// Append a segment.  `safer` copies; other modes borrow `data` until
  /// end_packing.
  void pack(core::ByteView data, SendMode mode = SendMode::safer) {
    if (mode == SendMode::safer) {
      iov_.append(data.to_bytes());
    } else {
      iov_.append_ref(data);
    }
  }

  /// Append an owned segment (internal headers).
  void pack(core::Bytes&& owned) { iov_.append(std::move(owned)); }

  /// Prepend an owned segment — for layers whose control header is
  /// only final at flush time (the circuit layer stamps its sequence
  /// number in end(), so an abandoned handle never consumes one).
  void prepend(core::Bytes&& owned) { iov_.prepend(std::move(owned)); }

  std::size_t byte_size() const noexcept { return iov_.byte_size(); }
  std::size_t segments() const noexcept { return iov_.segments(); }
  core::NodeId dst() const noexcept { return dst_; }
  std::uint8_t channel() const noexcept { return channel_; }

  /// Small scratch word for the layer above (MadIO records the logical
  /// tag here at begin() so end() cannot diverge from it).
  void set_context(std::uint32_t v) noexcept { context_ = v; }
  std::uint32_t context() const noexcept { return context_; }

 private:
  friend class Madeleine;
  PackHandle(std::uint8_t channel, core::NodeId dst)
      : channel_(channel), dst_(dst) {}

  std::uint8_t channel_;
  core::NodeId dst_;
  std::uint32_t context_ = 0;
  core::IoVec iov_;
};

/// An incoming message being consumed front to back.  Owns its buffer,
/// so it can be moved into a deferred dispatch (the arbitration queue).
class UnpackHandle {
 public:
  UnpackHandle(core::Bytes msg, std::size_t offset)
      : buf_(std::move(msg)), cur_(offset) {}
  // Moving steals the buffer and leaves the source fully consumed
  // (remaining() == 0) — receive handlers may take the handle by move
  // for deferred dispatch, and the caller's handle stays coherent.
  UnpackHandle(UnpackHandle&& other) noexcept
      : buf_(std::move(other.buf_)), cur_(other.cur_) {
    other.buf_.clear();
    other.cur_ = 0;
  }
  UnpackHandle& operator=(UnpackHandle&& other) noexcept {
    if (this != &other) {
      buf_ = std::move(other.buf_);
      cur_ = other.cur_;
      other.buf_.clear();
      other.cur_ = 0;
    }
    return *this;
  }

  std::size_t remaining() const noexcept { return buf_.size() - cur_; }

  /// View of everything not yet unpacked.
  core::ByteView remaining_view() const {
    return core::ByteView(buf_.data() + cur_, remaining());
  }

  /// Consume the next `n` bytes (clamped to what is left).
  core::ByteView unpack(std::size_t n) {
    n = std::min(n, remaining());
    core::ByteView v(buf_.data() + cur_, n);
    cur_ += n;
    return v;
  }

  /// Offset of the first unconsumed byte in the message buffer.
  std::size_t consumed() const noexcept { return cur_; }

  /// Hand the whole message buffer over, bytes before consumed()
  /// included — for a receiver that keeps the buffer instead of
  /// copying out of it.  The handle reads as fully consumed after.
  core::Bytes take_buffer() noexcept {
    core::Bytes out = std::move(buf_);
    buf_.clear();
    cur_ = 0;
    return out;
  }

 private:
  core::Bytes buf_;
  std::size_t cur_ = 0;
};

class Madeleine {
 public:
  /// Receive callback.  The handler may consume the handle in place or
  /// steal it by move for deferred dispatch (MadIO and the circuit
  /// layer do); the caller's handle then reads as fully consumed.
  using RecvHandler = std::function<void(core::NodeId src, UnpackHandle&)>;

  static constexpr std::size_t kHeaderSize = 8;
  static constexpr std::uint8_t kMagic = 0x4D;  // 'M'

  Madeleine(core::Host& host, drv::SanDriver& driver);
  Madeleine(const Madeleine&) = delete;
  Madeleine& operator=(const Madeleine&) = delete;

  core::Host& host() const noexcept { return *host_; }
  drv::SanDriver& driver() const noexcept { return *drv_; }

  /// Open the lowest free channel id (collective: both sides open in
  /// the same order).  The returned Channel stays owned by this
  /// Madeleine.
  Channel* open_channel();

  /// Open a channel at an explicit id — the circuit layer allocates
  /// grid-global ids so overlapping groups stay consistent across
  /// nodes.  Throws std::invalid_argument if `id` is already open.
  Channel* open_channel_at(std::uint8_t id);

  /// True if channel `id` is open (used by callers that must validate
  /// an explicit id before committing to open_channel_at).
  bool channel_open(std::uint8_t id) const {
    return channels_.find(id) != channels_.end();
  }

  /// Close `channel`: its id becomes reusable and later messages for
  /// it count as malformed.  The Channel pointer is dead afterwards.
  void close_channel(Channel& channel);

  /// Install (or, with an empty handler, clear) the receive handler of
  /// `channel`.  Messages for a handler-less channel count as malformed.
  void set_recv_handler(Channel& channel, RecvHandler handler);

  PackHandle begin_packing(Channel& channel, core::NodeId dst);

  /// Flush: the whole handle travels as one driver message, built in
  /// one buffer with the driver's headroom in front.
  void end_packing(PackHandle handle);

  std::uint64_t messages_received() const noexcept { return received_; }
  std::uint64_t malformed() const noexcept { return malformed_; }

 private:
  Channel* establish(std::uint8_t id);
  void on_driver_message(core::NodeId src, core::Bytes frame,
                         std::size_t offset);

  // One entry per open channel.  Map nodes never move, so the Channel
  // pointers handed out stay valid until close_channel.
  struct Slot {
    Channel channel;
    RecvHandler handler;
  };

  core::Host* host_;
  drv::SanDriver* drv_;
  std::map<std::uint8_t, Slot> channels_;
  std::uint64_t received_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace padico::mad
