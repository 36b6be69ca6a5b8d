// SanDriver: a GM-like user-level SAN access driver (the layer plain
// Madeleine sits on for Myrinet in the paper's stack).
//
// Cost model (one GM-like profile, three `SanDriver` constants): every
// injected message occupies the host CPU for a fixed per-message cost
// (`kPerMessage`) plus a per-byte copy cost (`kPerByteNs`) before it
// reaches the NIC — the dominant term of small-message latency on a
// real SAN.  Messages above `kEagerThreshold` switch to a rendezvous: a REQ
// control frame travels to the receiver, the receiver answers ACK, and
// only then does the payload transmit (GM's receiver-paced
// large-message protocol).  Costs are charged on the sending host
// only; the wire itself is timed by the simnet layer underneath.
//
// Ordering: messages to one destination are injected strictly in post
// order — a rendezvous in progress stalls the sends behind it — so the
// byte-stream layers above never see reordering across the eager /
// rendezvous boundary.  A destination with no rendezvous in flight
// holds no state: its sends go out at once.
//
// Buffers: the caller builds each frame with `kFrameHeader` bytes of
// headroom in front of the payload; the driver stamps its header there
// and the same buffer travels the wire and reaches the receiver, which
// gets `(frame, kFrameHeader, tail)` — no copy on either side.  A
// message may also carry a shared tail (core::SharedBytes): it rides
// behind the frame by reference as simnet's message tail, and every
// cost, the eager/rendezvous choice and every wire instant read head +
// tail, so it lands exactly when the same bytes copied into the frame
// would.
//
// Wire format, one simnet message per frame (host byte order):
//   [u8 type][u8 reserved][u16 reserved][u32 seq]  = 8 header bytes,
// followed by the payload (frame, then tail) for kEager / kData frames.
// `seq` comes from one driver-wide counter, one number per `send`; a
// REQ carries its message's number and the ACK must echo it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "core/host.hpp"
#include "simnet/network.hpp"

namespace padico::drv {

class SanDriver {
 public:
  /// Receives a whole wire frame; the payload starts at `offset` and
  /// ends with `tail` (empty unless the sender passed one).
  using RecvFn = std::function<void(core::NodeId src, core::Bytes frame,
                                    std::size_t offset,
                                    core::SharedBytes tail)>;

  static constexpr std::size_t kFrameHeader = 8;

  /// Fixed CPU cost to inject one message (descriptor setup, doorbell).
  static constexpr core::Duration kPerMessage = core::nanoseconds(700);

  /// CPU cost per payload byte (pinned-buffer copy), in ns/byte.
  static constexpr double kPerByteNs = 0.4;

  /// Largest payload sent eagerly; bigger messages rendezvous first.
  static constexpr std::size_t kEagerThreshold = 32 * 1024;

  /// Registers itself as the receiver for `host.id()` on network `net`.
  SanDriver(core::Host& host, simnet::Fabric& fabric, simnet::NetId net);
  SanDriver(const SanDriver&) = delete;
  SanDriver& operator=(const SanDriver&) = delete;
  ~SanDriver();

  core::Host& host() const noexcept { return *host_; }
  simnet::Network& network() const noexcept { return *net_; }

  /// Install the single upper-layer receiver (Madeleine owns demux).
  void set_receiver(RecvFn fn) { recv_ = std::move(fn); }

  /// Queue `frame` for delivery to `dst`: its first `kFrameHeader`
  /// bytes are headroom the driver overwrites with its header, the
  /// rest, then `tail` (by reference), is the payload.  Returns
  /// immediately; injection cost, rendezvous and wire time all unfold
  /// in virtual time.  Throws std::invalid_argument if `frame` is
  /// shorter than the headroom.
  void send(core::NodeId dst, core::Bytes frame, core::SharedBytes tail = {});

  bool reaches(core::NodeId node) const;

  std::uint64_t eager_sent() const noexcept { return eager_sent_; }
  std::uint64_t rendezvous_sent() const noexcept { return rendezvous_sent_; }

  /// Destinations with a rendezvous in flight.
  std::size_t stalled() const noexcept { return stalled_.size(); }

 private:
  enum FrameType : std::uint8_t {
    kEager = 1,  // payload, fire-and-forget
    kReq = 2,    // rendezvous request
    kAck = 3,    // rendezvous clear-to-send
    kData = 4,   // payload after rendezvous
  };

  struct Pending {
    core::Bytes frame;
    core::SharedBytes tail;
    std::uint32_t seq;
  };

  /// Eager frames go out now; a large one sends its REQ and returns
  /// false, the caller stalls it until the matching ACK.
  bool start(core::NodeId dst, Pending& msg);
  void on_ack(core::NodeId src, std::uint32_t seq);
  void emit(core::NodeId dst, FrameType type, std::uint32_t seq,
            core::Bytes frame, core::SharedBytes tail = {});
  void on_wire(core::NodeId src, core::Bytes frame, core::SharedBytes tail);

  core::Host* host_;
  simnet::Network* net_;
  RecvFn recv_;
  // One entry per destination with a REQ outstanding: its front is the
  // message that REQ announced, the rest were posted behind it.
  std::unordered_map<core::NodeId, std::deque<Pending>> stalled_;
  std::uint32_t next_seq_ = 1;
  core::SimTime cpu_busy_until_ = 0;
  std::uint64_t eager_sent_ = 0;
  std::uint64_t rendezvous_sent_ = 0;
};

}  // namespace padico::drv
