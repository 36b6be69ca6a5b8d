// AdocDriver: the "adoc" access method — adaptive online compression
// (paper §3.2).  Every posted write becomes one self-describing frame:
// a 16-byte header naming the compression level and sizes, followed by
// the encoded payload.  The adaptive controller picks the level per
// frame by comparing, for each `cz::Level`:
//
//   est(level) = max(cpu queue + encode cost, NIC transmit backlog)
//                + predicted wire bytes / wire rate
//
// i.e. the paper's sensing rule: when the transmit backlog exceeds the
// CPU cost of compressing, compression is free wall-clock-wise and the
// smaller wire image wins; on a fast idle link the encode cost itself
// must beat the saved wire time.  CPU is charged in *virtual* time
// through a `core::CostClock` (cz::encode_cost / decode_cost), so runs
// are deterministic on any host.  Compression ratios per level start
// from a small real trial encoding of the current payload's prefix and
// converge to an EWMA of observed full frames; `pin_level()` freezes
// the choice for ablation arms.
//
// Establishment: a one-shot hello on a base connection to
// `sub_port(P)`; the acceptor side is AdapterDriver's.
//
// AdOC adds no reliability of its own (`lossy()` forwards the base):
// it belongs on reliable paths, or under VRP-style recovery.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "compress/lz.hpp"
#include "core/cost_clock.hpp"
#include "core/host.hpp"
#include "simnet/network.hpp"
#include "vlink/adapter_driver.hpp"
#include "vlink/link.hpp"

namespace padico::vlink {

namespace adoc {

inline constexpr std::uint32_t kMagic = 0x636f6461;  // "adoc"
inline constexpr std::size_t kHeaderSize = 16;

enum class Kind : std::uint8_t {
  hello = 1,  // establishment (one-shot; adoc assumes a reliable base)
  data = 2,   // one compressed frame
};

/// The 16-byte adoc frame header.  Layout (reserved zero on encode,
/// ignored on decode; host byte order like the vlink wire codec):
///
///   [ 0] u32 magic    kMagic ("adoc")
///   [ 4] u8  kind     Kind, 1..2
///   [ 5] u8  level    data: compress::Level of the payload
///   [ 6] u16 reserved
///   [ 8] u32 raw_len  data: decoded payload bytes
///   [12] u32 enc_len  data: encoded payload bytes (== frame remainder)
struct Header {
  Kind kind = Kind::data;
  compress::Level level = compress::Level::stored;
  std::uint32_t raw_len = 0;
  std::uint32_t enc_len = 0;

  friend bool operator==(const Header&, const Header&) = default;
};

/// The header followed by `payload` (the encoded bytes), in one buffer
/// sized for both.
core::Bytes encode_header(const Header& h, core::ByteView payload = {});

/// Parse the header at the front of `frame`.  Returns nullopt for
/// truncated input, a bad magic, an unknown kind or an unknown level;
/// never reads past `frame.size()`.
std::optional<Header> decode_header(core::ByteView frame);

/// The base-driver port an adoc rendezvous on logical port `p` uses
/// (involution; image disjoint from pstream's `^ 0x8000` and vrp's
/// `^ 0x4000`).
inline constexpr core::Port kPortMask = 0xC000;
constexpr core::Port sub_port(core::Port p) {
  return static_cast<core::Port>(p ^ kPortMask);
}

}  // namespace adoc

/// Both ends of an adoc connection hold one of these.  Public so the
/// ablation bench pins levels and reads the accounting via downcast.
class AdocLink final : public Link {
 public:
  /// `net` (nullable) is the base driver's network, sensed for the
  /// transmit backlog; `self` the local node on that network.
  AdocLink(core::Engine& engine, core::NodeId remote_node,
           core::Port local_port, core::Port remote_port,
           std::unique_ptr<Link> base, simnet::Network* net,
           core::NodeId self);
  ~AdocLink() override;

  /// Freeze the controller on `level` (ablation arms).
  void pin_level(compress::Level level) { pinned_ = level; }
  void unpin_level() { pinned_.reset(); }
  std::optional<compress::Level> pinned_level() const noexcept {
    return pinned_;
  }

  /// Level of the most recent data frame sent.
  compress::Level last_level() const noexcept { return last_level_; }
  /// Times the controller changed level between consecutive frames.
  std::uint64_t level_switches() const noexcept { return level_switches_; }
  std::uint64_t raw_bytes_sent() const noexcept { return raw_out_; }
  std::uint64_t wire_bytes_sent() const noexcept { return enc_out_; }
  /// Wire bytes / raw bytes over everything sent (1.0 until traffic).
  double compress_ratio() const noexcept {
    return raw_out_ == 0 ? 1.0
                         : static_cast<double>(enc_out_) /
                               static_cast<double>(raw_out_);
  }
  /// Frames that failed to parse or decode (dropped, counted).
  std::uint64_t malformed_frames() const noexcept { return malformed_; }

 protected:
  void send_bytes(core::ByteView data) override;

 private:
  friend class AdocDriver;

  void on_frame(core::ByteView frame);
  compress::Level pick(core::ByteView payload);
  double level_ratio(compress::Level level, core::ByteView payload) const;

  core::Engine* engine_;
  std::unique_ptr<Link> base_;
  simnet::Network* net_;
  core::NodeId self_;
  double wire_bps_;
  std::shared_ptr<char> alive_ = std::make_shared<char>();

  core::CostClock tx_cpu_;
  core::CostClock rx_cpu_;

  std::optional<compress::Level> pinned_;
  compress::Level last_level_ = compress::Level::stored;
  bool have_last_ = false;
  std::uint64_t level_switches_ = 0;
  std::array<double, compress::kLevelCount> ratio_ewma_{1.0, 1.0, 1.0};
  std::array<bool, compress::kLevelCount> ratio_known_{false, false, false};

  std::uint64_t raw_out_ = 0;
  std::uint64_t enc_out_ = 0;
  std::uint64_t malformed_ = 0;

  // obs instrumentation.
  obs::Counter* obs_raw_;
  obs::Counter* obs_wire_;
  obs::Counter* obs_switches_;
  const char* trace_encode_;  // interned "adoc.encode"
  const char* trace_decode_;  // interned "adoc.decode"
};

class AdocDriver final : public AdapterDriver {
 public:
  /// Adapts `base` (borrowed; registered on the same VLink before this
  /// driver).  `net` (nullable) is sensed for transmit backlog.
  AdocDriver(core::Host& host, Driver& base, std::string name,
             simnet::Network* net);

  void connect(const RemoteAddr& remote, ConnectFn on_connect) override;

  // Compression adds no recovery; a lossy base stays lossy.
  bool lossy() const override { return base().lossy(); }

 protected:
  bool on_hello(std::unique_ptr<Link>& base, core::Port port,
                core::ByteView hello, const AcceptFn& on_accept) override;

 private:
  simnet::Network* net_;
};

}  // namespace padico::vlink
