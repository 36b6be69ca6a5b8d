// PstreamDriver: the "pstream" access method — one logical Link
// striped over N sub-links of a base driver (normally "sysio" on a
// WAN profile).  This is the paper's ParallelStreams adapter (§5): on
// a long fat pipe a single socket is window-limited (the vthd_wan
// profile caps one stream at ~9 MB/s), so the driver opens N sockets
// and stripes, recovering the node's full access bandwidth (~12 MB/s
// through Ethernet-100).
//
// Wire format (rides INSIDE the base driver's byte stream, so its
// overhead is measured like every other layer's): each chunk is a
// 24-byte sub-frame header followed by payload.  The same header
// shape, magic-tagged, carries the establishment hello.  See
// `pstream::SubHeader`; `decode_sub` is the single parser and rejects
// garbage by returning nullopt (fuzzed in tests/test_wire_fuzz.cpp).
//
// Establishment: a pstream listen on logical port P accepts base
// connections on the mapped port `sub_port(P) = P ^ 0x8000` (the
// rendezvous rules are AdapterDriver's).  A connect opens `width` base
// connections to sub_port(P) and posts a hello sub-frame on each
// {group id, width, sub-link index, logical port} as its own base
// message; the acceptor switches each sub-link back to stream mode
// after its hello, groups hellos by id and fires its AcceptFn once all
// width sub-links arrived.  Malformed or mismatched hellos (a hello
// split across two writes included) are counted and their sub-link
// dropped.
//
// Data path: send_bytes round-robins fixed-size chunks over the
// sub-links (sub-link = seq % width), each tagged with a global
// sequence number; the receive side runs one reader per sub-link and
// releases chunks to the Link stream buffer strictly in sequence
// order, so the byte stream the user reads is identical to a
// single-socket transfer — width 1 degenerates to sysio plus one
// sub-frame header per chunk.  A garbage sub-frame poisons its
// sub-link (a byte stream cannot resync): the reader stops, the event
// is counted (`malformed_subframes()`), and chunks already sequenced
// keep flowing from the healthy sub-links.
//
// Units / determinism: adds no virtual time of its own — all pacing
// comes from the base driver and the simulated wire.  Sub-link
// establishment order and the reassembly map are deterministic, so a
// striped transfer is bit-identical across runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/host.hpp"
#include "core/task.hpp"
#include "vlink/adapter_driver.hpp"
#include "vlink/link.hpp"

namespace padico::vlink {

namespace pstream {

inline constexpr std::uint32_t kMagic = 0x72747370;  // "pstr"
inline constexpr std::size_t kSubHeaderSize = 24;

/// Striping granularity: one sub-frame per 16 KiB of payload.  Also
/// the largest data length a decoder accepts — senders never exceed
/// it, so anything bigger is garbage by construction.
inline constexpr std::size_t kChunkSize = 16 * 1024;

enum class SubKind : std::uint8_t {
  hello = 1,  // establishment: join a stream group
  data = 2,   // one striped chunk
};

/// The 24-byte pstream sub-frame header.
///
/// Layout (reserved bytes zero on encode, ignored on decode; host
/// byte order like the vlink wire codec — the simulation never
/// crosses real hosts):
///
///   [ 0] u32 magic     kMagic ("pstr")
///   [ 4] u8  kind      SubKind, 1..2
///   [ 5] u8  index     hello: sub-link index (0..width-1)
///   [ 6] u16 width     hello: stream-group width
///   [ 8] u16 port      hello: logical listen port
///   [10] u16 reserved
///   [12] u32 len       data: chunk payload bytes (<= kChunkSize)
///   [16] u64 id        hello: stream-group id; data: chunk sequence
struct SubHeader {
  SubKind kind = SubKind::data;
  std::uint8_t index = 0;
  std::uint16_t width = 0;
  core::Port port = 0;
  std::uint32_t len = 0;
  std::uint64_t id = 0;

  friend bool operator==(const SubHeader&, const SubHeader&) = default;
};

/// The sub-frame header followed by `payload` (a data chunk), in one
/// buffer sized for both.
core::Bytes encode_sub(const SubHeader& h, core::ByteView payload = {});

/// Parse the sub-frame header at the front of `frame`.  Returns
/// nullopt for truncated input, a bad magic, an unknown kind or an
/// oversized data length; never reads past `frame.size()`.
std::optional<SubHeader> decode_sub(core::ByteView frame);

/// The base-driver port a pstream rendezvous on logical port `p` uses.
inline constexpr core::Port kPortMask = 0x8000;
constexpr core::Port sub_port(core::Port p) {
  return static_cast<core::Port>(p ^ kPortMask);
}

}  // namespace pstream

/// The striped Link both sides of a pstream connection hold.  Public
/// so tests (and diagnostics) can read the per-sub-link flow
/// accounting through a downcast.
///
/// Deliveries are driven by per-sub-link reader coroutines owned by
/// the link itself, so the read_n lifetime rule (see vlink/link.hpp)
/// is load-bearing here: destroying a PstreamLink from inside one of
/// its own read continuations would destroy a running coroutine.
/// Drop the link from outside the delivery chain.
class PstreamLink final : public Link {
 public:
  PstreamLink(core::Engine& engine, core::NodeId remote_node,
              core::Port local_port, core::Port remote_port,
              std::vector<std::unique_ptr<Link>> subs);

  int width() const noexcept { return static_cast<int>(subs_.size()); }

  /// Sub-frames that failed to parse (each poisons its sub-link).
  std::uint64_t malformed_subframes() const noexcept { return malformed_; }

  // Per-sub-link flow accounting (chunk payload bytes, headers not
  // counted — they are overhead, not flow).
  std::uint64_t sub_tx_bytes(int i) const { return subs_.at(i).tx_bytes; }
  std::uint64_t sub_rx_bytes(int i) const { return subs_.at(i).rx_bytes; }
  bool sub_poisoned(int i) const { return subs_.at(i).poisoned; }

 protected:
  void send_bytes(core::ByteView data) override;

 private:
  struct Sub {
    std::unique_ptr<Link> link;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_bytes = 0;
    bool poisoned = false;
    obs::Counter* obs_tx = nullptr;  // "pstream.sub.<i>.tx_bytes"
    core::Task reader;  // declared last: cancelled before the link dies
  };

  core::Task run_reader(std::size_t i);

  core::Engine* engine_;
  std::vector<Sub> subs_;
  std::uint64_t next_send_seq_ = 0;
  std::uint64_t next_deliver_seq_ = 0;
  std::map<std::uint64_t, core::Bytes> reorder_;
  std::uint64_t malformed_ = 0;
  // obs instrumentation: chunk counts and striping balance.
  obs::Counter* obs_chunks_;
  obs::Histogram* obs_chunk_bytes_;
};

class PstreamDriver final : public AdapterDriver {
 public:
  /// Stripes over `width` connections of `base` (borrowed; registered
  /// on the same VLink before this driver).
  PstreamDriver(core::Host& host, Driver& base, std::string name, int width);

  void connect(const RemoteAddr& remote, ConnectFn on_connect) override;

  // Striping adds no recovery; a lossy base stays lossy.
  bool lossy() const override { return base().lossy(); }

  int width() const noexcept { return width_; }

  /// Stream groups still waiting for sub-links.  The stack has no
  /// connection-teardown protocol (FrameLink death is local), so a
  /// group abandoned by its connector mid-establishment — or whose
  /// port was unlistened meanwhile — stays pending until the driver
  /// dies: visible here for diagnostics, bounded by the number of
  /// failed establishment attempts.
  std::size_t pending_groups() const noexcept { return accepting_.size(); }

 protected:
  bool on_hello(std::unique_ptr<Link>& sub, core::Port port,
                core::ByteView hello, const AcceptFn& on_accept) override;

 private:
  struct PendingGroup {
    core::Port port = 0;
    std::uint16_t width = 0;
    std::vector<std::unique_ptr<Link>> slots;
    std::uint16_t filled = 0;
  };

  int width_;
  std::uint64_t next_group_ = 1;
  std::map<std::uint64_t, PendingGroup> accepting_;  // by stream-group id
};

}  // namespace padico::vlink
