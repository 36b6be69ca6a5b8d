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
// followed by the concatenated segments (8 header bytes total; the
// count is one per `pack` or `reserve` call, the payload bytes include
// a shared tail).
//
// One pooled buffer per message: `begin_packing` takes it from the
// engine's BytesPool with `PackHandle::kHeadroom` (16) bytes in front,
// the SAN driver's header and then Madeleine's, both stamped at the
// flush.  The layers above write their headers straight into it
// (`reserve`), `safer` bytes are appended at pack time and `later` /
// `cheaper` bytes are reserved then and copied at the flush.  A
// `core::SharedBytes` packed last rides behind the buffer by reference
// (SanDriver carries it as the message's tail) and reaches the
// receiver's `UnpackHandle::tail()` uncopied; `unpack` and `remaining`
// read the buffer only.  Only MadIODriver's frames carry a tail (a
// shared vlink write); MadIO's and the circuits' own messages never do.
// The receiving Madeleine wraps the buffer, driver header included, in
// the UnpackHandle, and what its handler leaves of it goes back to the
// pool: in steady state a SAN message allocates nothing.
//
// Channel establishment is one shared path: `open_channel()` takes the
// lowest free id (MadIO's bootstrap channel 0), `open_channel_at(id)`
// pins an explicit id (the circuit layer's grid-allocated channels);
// both funnel through the same registration so ids can never collide.
//
// Units / ownership / determinism: all timing below this API is
// virtual nanoseconds charged by the SAN driver and simnet (this layer
// adds no time of its own).  Channels are owned by their Madeleine and
// live until closed or until it dies; PackHandle owns its buffer and
// borrows caller storage for later/cheaper segments until end_packing;
// UnpackHandle owns its buffer and shares its tail.  All routing state
// lives in one ordered map (each open channel with its handler) and
// handlers run inline from driver delivery, so traces are bit-identical
// across runs.
#pragma once

#include <algorithm>
#include <cassert>
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

/// An open outgoing message: one pooled buffer plus an optional shared
/// tail.  Move-only; finished by Madeleine::end_packing.
class PackHandle {
 public:
  /// Bytes in front of the first packed one: the SAN driver's header,
  /// then Madeleine's, both written at the flush.
  static constexpr std::size_t kHeadroom = drv::SanDriver::kFrameHeader + 8;

  PackHandle(PackHandle&&) noexcept = default;
  PackHandle& operator=(PackHandle&&) noexcept = default;

  /// Append a segment.  `safer` copies `data` now; `later` and
  /// `cheaper` reserve its bytes now and copy them at end_packing, so
  /// `data` stays borrowed until then.
  void pack(core::ByteView data, SendMode mode = SendMode::safer);

  /// Make `tail` the message's last segment: it travels by reference
  /// and arrives as the receiver's UnpackHandle::tail().  Packing
  /// anything after it throws std::logic_error.
  void pack(core::SharedBytes tail);

  /// Append an `n`-byte segment the caller writes in place (a layer's
  /// header).  The pointer is valid until the next pack.
  std::uint8_t* reserve(std::size_t n);

  /// The `n` packed bytes at `offset` (0 is the first packed byte),
  /// for a header reserved at begin that is only final at the flush.
  /// Throws std::out_of_range past the packed bytes.  Valid until the
  /// next pack.
  std::uint8_t* bytes_at(std::size_t offset, std::size_t n);

  std::size_t byte_size() const noexcept { return packed() + tail_.size(); }
  std::size_t segments() const noexcept { return segments_; }
  core::NodeId dst() const noexcept { return dst_; }
  std::uint8_t channel() const noexcept { return channel_; }

  /// Small scratch word for the layer above (MadIO records the logical
  /// tag here at begin() so end() cannot diverge from it).
  void set_context(std::uint32_t v) noexcept { context_ = v; }
  std::uint32_t context() const noexcept { return context_; }

 private:
  friend class Madeleine;
  PackHandle(std::uint8_t channel, core::NodeId dst, core::Bytes buf)
      : buf_(std::move(buf)), channel_(channel), dst_(dst) {}

  /// Bytes packed into the buffer (0 once the handle was moved from).
  std::size_t packed() const noexcept {
    return buf_.size() < kHeadroom ? 0 : buf_.size() - kHeadroom;
  }
  /// Start a segment of `n` bytes at the buffer's end; returns where.
  std::size_t grow(std::size_t n);
  /// Copy every borrowed segment into the bytes reserved for it.
  void fill_borrowed() noexcept;

  /// A borrowed segment: `src` lands at buffer offset `at` at flush.
  struct Borrow {
    std::size_t at;
    core::ByteView src;
  };

  core::Bytes buf_;
  core::SharedBytes tail_;
  std::vector<Borrow> borrows_;  // later/cheaper segments, in pack order
  std::size_t segments_ = 0;
  std::uint8_t channel_;
  core::NodeId dst_;
  std::uint32_t context_ = 0;
};

/// An incoming message being consumed front to back.  Owns its buffer
/// and shares its tail, so it can be moved into a deferred dispatch.
/// `unpack` and `remaining` read the buffer; a shared tail the sender
/// packed last (MadIODriver frames only) is `tail()`.
class UnpackHandle {
 public:
  UnpackHandle(core::Bytes msg, std::size_t offset,
               core::SharedBytes tail = {})
      : buf_(std::move(msg)), tail_(std::move(tail)), cur_(offset) {}
  // Moving steals the buffer and the tail and leaves the source fully
  // consumed (remaining() == 0) — receive handlers may take the handle
  // by move for deferred dispatch, and the caller's handle stays
  // coherent.
  UnpackHandle(UnpackHandle&& other) noexcept
      : buf_(std::move(other.buf_)),
        tail_(std::move(other.tail_)),
        cur_(other.cur_) {
    other.buf_.clear();
    other.cur_ = 0;
  }
  UnpackHandle& operator=(UnpackHandle&& other) noexcept {
    if (this != &other) {
      buf_ = std::move(other.buf_);
      tail_ = std::move(other.tail_);
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

  /// Room for a layer that defers the handle to keep a small value
  /// with the message: the buffer's first kScratch bytes, the SAN
  /// driver's header, which Madeleine has read and nothing reads
  /// again.  Only a handle Madeleine delivered has it, so consumed()
  /// must be at least kScratch; it survives take_buffer() and a
  /// handle rebuilt around the buffer at the same cursor.
  static constexpr std::size_t kScratch = drv::SanDriver::kFrameHeader;
  std::uint8_t* scratch() noexcept {
    assert(cur_ >= kScratch && "UnpackHandle: no consumed scratch bytes");
    return buf_.data();
  }

  /// Hand the whole message buffer over, bytes before consumed()
  /// included — for a receiver that keeps the buffer instead of
  /// copying out of it.  The handle reads as fully consumed after.
  core::Bytes take_buffer() noexcept {
    core::Bytes out = std::move(buf_);
    buf_.clear();
    cur_ = 0;
    return out;
  }

  /// The shared tail the sender packed last (empty if none): the
  /// sender's own block, never copied.
  const core::SharedBytes& tail() const noexcept { return tail_; }
  core::SharedBytes take_tail() noexcept { return std::move(tail_); }

 private:
  core::Bytes buf_;
  core::SharedBytes tail_;
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

  /// Open a message on `channel` towards `dst`, in a pooled buffer
  /// with room for `size_hint` packed bytes (a hint: it still grows).
  PackHandle begin_packing(Channel& channel, core::NodeId dst,
                           std::size_t size_hint = 0);

  /// Flush: the borrowed segments are copied in, both headers are
  /// stamped into the headroom and the buffer (plus any shared tail)
  /// travels as one driver message.
  void end_packing(PackHandle handle);

  std::uint64_t messages_received() const noexcept { return received_; }
  std::uint64_t malformed() const noexcept { return malformed_; }

 private:
  Channel* establish(std::uint8_t id);
  void on_driver_message(core::NodeId src, core::Bytes frame,
                         std::size_t offset, core::SharedBytes tail);

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
