// VrpDriver: the "vrp" access method — loss-TOLERANT delivery over a
// lossy base driver (paper §5).  VRP's bargain: the application names a
// loss budget (`BuildOptions::vrp.max_loss`); losses within the budget
// are *accepted* (the stream simply misses those bytes and never
// stalls), losses beyond it are repaired by retransmission.  At budget
// 0 the adapter degenerates to a reliable ARQ transport — the
// "TCP/plain sockets" baseline of the §5 comparison — and pays the
// full stall + congestion-backoff cost on every loss; at the paper's
// 10 % budget on the 5–10 % transcontinental profile nearly every loss
// is absorbed and goodput roughly triples.
//
// Wire format (rides INSIDE base-driver data frames): a 24-byte
// magic-tagged header (`vrp::Header`, single nullopt-returning
// `decode_header`, fuzzed in test_wire_fuzz) optionally followed by a
// data chunk of at most kChunkSize bytes.  Chunks are sized so header
// + chunk fits one wire MTU frame — each VRP frame then lives or dies
// atomically under the simnet per-frame loss model.
//
// Protocol:
//   * establishment — base connect to `sub_port(P)` (re-attempted on
//     timeout: the base connect/accept frames are themselves lossy),
//     then a hello carrying the connector's loss budget, retransmitted
//     until the acceptor's hello_ack arrives; duplicate hellos re-ack.
//     The acceptor side is AdapterDriver's.
//   * data — offset-stamped chunks under an AIMD window (additive
//     increase per acked frame, halve on a loss event, at most one cut
//     per RTT).  The receiver acks cumulatively on every arrival; the
//     base wire never reorders, so a sequence gap on arrival means
//     definite loss: within budget the receiver *gives up* on the gap
//     immediately (skips it, counts it, never stalls), over budget it
//     nacks and waits.  Sender-side RTO backstops lost tails and lost
//     acks/nacks, at most 32 times per frame.
//   * teardown — post_close() sends a fin at the final offset,
//     retransmitted until acked (at most 32 times); the receiver marks
//     eof once the stream is resolved up to the fin.
//   Both caps stop the timers once the peer has left for good.
//
// Accounting: realized_loss() is skipped-bytes / resolved-bytes
// (receiver-reported through acks, so the *sender* can read it), which
// converges to min(link loss, budget) on long transfers — the per-frame
// simnet loss model fixed in this PR is what makes that true.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "core/host.hpp"
#include "vlink/adapter_driver.hpp"
#include "vlink/link.hpp"

namespace padico::vlink {

namespace vrp {

inline constexpr std::uint32_t kMagic = 0x66707276;  // "vrpf"
inline constexpr std::size_t kHeaderSize = 24;

/// Chunk payload cap: header + chunk must fit one 1500-byte MTU frame
/// of the base wire so a VRP frame is lost atomically, never torn.
inline constexpr std::size_t kChunkSize = 1280;

enum class Kind : std::uint8_t {
  hello = 1,      // connector -> acceptor: open, len = loss budget (ppm)
  hello_ack = 2,  // acceptor -> connector: open confirmed
  data = 3,       // seq = stream offset, len = chunk bytes
  ack = 4,        // seq = cumulative resolved offset, aux = skipped bytes
  nack = 5,       // seq = gap offset, len = gap bytes: please retransmit
  fin = 6,        // seq = final stream offset
};

/// ack flag: the receiver has seen the fin (sender may stop resending
/// it — a cumulative offset alone cannot confirm fin receipt).
inline constexpr std::uint8_t kFlagFinSeen = 0x1;

/// The 24-byte VRP frame header.  Layout (reserved bytes zero on
/// encode, ignored on decode; host byte order like the vlink wire
/// codec — the simulation never crosses real hosts):
///
///   [ 0] u32 magic   kMagic ("vrpf")
///   [ 4] u8  kind    Kind, 1..6
///   [ 5] u8  flags   ack: kFlagFinSeen
///   [ 6] u16 reserved
///   [ 8] u32 len     data: chunk bytes; nack: gap bytes; hello: budget ppm
///   [12] u32 aux     ack: total skipped (given-up) bytes so far
///   [16] u64 seq     data/nack: stream offset; ack: cumulative; fin: final
struct Header {
  Kind kind = Kind::data;
  std::uint8_t flags = 0;
  std::uint32_t len = 0;
  std::uint32_t aux = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const Header&, const Header&) = default;
};

/// The header followed by `payload` (a data chunk), in one buffer
/// sized for both.
core::Bytes encode_header(const Header& h, core::ByteView payload = {});

/// Parse the header at the front of `frame`.  Returns nullopt for
/// truncated input, a bad magic, an unknown kind, a data length of 0
/// or beyond kChunkSize, or a hello budget >= 100 % — never reads past
/// `frame.size()`.
std::optional<Header> decode_header(core::ByteView frame);

/// The base-driver port a vrp rendezvous on logical port `p` uses
/// (involution; image disjoint from pstream's `^ 0x8000` and adoc's
/// `^ 0xC000`).
inline constexpr core::Port kPortMask = 0x4000;
constexpr core::Port sub_port(core::Port p) {
  return static_cast<core::Port>(p ^ kPortMask);
}

}  // namespace vrp

/// Both ends of a VRP connection hold one of these (the protocol is
/// symmetric; a unidirectional transfer just leaves one direction's
/// sender state idle).  Public so benches/tests can read the loss
/// accounting through a downcast.
class VrpLink final : public Link {
 public:
  VrpLink(core::Engine& engine, core::NodeId remote_node,
          core::Port local_port, core::Port remote_port,
          std::unique_ptr<Link> base, double max_loss, bool acceptor);
  ~VrpLink() override;

  double max_loss() const noexcept { return max_loss_; }

  /// Fraction of resolved stream bytes that were given up (either
  /// direction); converges to min(link loss, budget).
  double realized_loss() const noexcept;

  /// Data/fin frames this end re-sent (nack- or RTO-triggered).
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }
  /// Gaps this end's receiver gave up on (skipped within budget).
  std::uint64_t give_ups() const noexcept { return give_ups_; }
  /// Bytes this end's receiver skipped.
  std::uint64_t skipped_bytes() const noexcept { return skipped_; }
  /// Nacks this end's receiver sent (budget exhausted -> repair).
  std::uint64_t nacks_sent() const noexcept { return nacks_sent_; }
  /// Base-link datagrams that failed to parse (dropped, counted).
  std::uint64_t malformed_frames() const noexcept { return malformed_; }
  /// Congestion window, in frames (tests pin the AIMD shape).
  double cwnd() const noexcept { return cwnd_; }

  /// Send a fin at the current write offset and retransmit it until
  /// the peer confirms; the peer's eof_seen() flips once its stream is
  /// resolved up to the fin.
  void post_close() override;

 protected:
  void send_bytes(core::ByteView data) override;

 private:
  friend class VrpDriver;  // replays the frame that completed handshake

  struct Flight {
    core::Bytes payload;
    core::SimTime last_tx = 0;
    int rto_tries = 0;  // RTO-triggered resends of this frame
  };

  void on_frame(core::ByteView frame);
  void on_ack(const vrp::Header& h);
  void on_nack(const vrp::Header& h);
  void on_data(const vrp::Header& h, core::ByteView payload);
  void on_fin(const vrp::Header& h);

  void pump();
  void emit(const vrp::Header& h, core::ByteView payload = {});
  void transmit(std::uint64_t offset);
  void arm_rto(std::uint64_t offset);
  void send_fin();
  void arm_fin_timer();
  void cut_cwnd();

  void resolve_gaps();
  void send_ack();
  void maybe_nack(std::uint64_t offset, std::uint64_t len);

  core::Engine* engine_;
  std::unique_ptr<Link> base_;
  double max_loss_;
  bool acceptor_;
  // Liveness token for timers: scheduled closures hold a weak copy and
  // bail once the link is gone.
  std::shared_ptr<char> alive_ = std::make_shared<char>();

  // --- sender state ---
  std::deque<std::pair<std::uint64_t, core::Bytes>> send_q_;
  std::map<std::uint64_t, Flight> flight_;
  std::uint64_t next_offset_ = 0;    // stream bytes enqueued
  std::uint64_t cum_acked_ = 0;      // peer-resolved offset
  std::uint64_t reported_skipped_ = 0;  // peer-reported given-up bytes
  double cwnd_;
  core::SimTime last_cut_ = 0;
  std::optional<std::uint64_t> fin_offset_;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  int fin_tries_ = 0;  // fin resends
  std::uint64_t retransmissions_ = 0;

  // --- receiver state ---
  std::uint64_t expected_ = 0;   // resolved offset (delivered + skipped)
  std::uint64_t skipped_ = 0;    // bytes given up
  std::uint64_t seen_end_ = 0;   // highest stream offset seen (budget base)
  std::map<std::uint64_t, core::Bytes> ooo_;
  std::optional<std::uint64_t> rfin_;
  std::uint64_t give_ups_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t last_nack_off_ = ~0ull;
  core::SimTime last_nack_time_ = 0;

  // obs instrumentation (counters shared per engine, names in DESIGN).
  obs::Counter* obs_retx_;
  obs::Counter* obs_giveups_;
  obs::Counter* obs_nacks_;
  obs::Counter* obs_skipped_;
  const char* trace_retx_;    // interned "vrp.retx"
  const char* trace_giveup_;  // interned "vrp.giveup"
};

class VrpDriver final : public AdapterDriver {
 public:
  /// Adapts `base` (borrowed; registered on the same VLink before this
  /// driver).  `max_loss` is the budget new connections announce.
  VrpDriver(core::Host& host, Driver& base, std::string name,
            double max_loss);

  void connect(const RemoteAddr& remote, ConnectFn on_connect) override;

  /// The whole point: bounded loss on a lossy base.
  bool lossy() const override { return false; }

  double max_loss() const noexcept { return max_loss_; }

 protected:
  bool on_hello(std::unique_ptr<Link>& base, core::Port port,
                core::ByteView hello, const AcceptFn& on_accept) override;

 private:
  struct Attempt {
    ConnectFn fn;
    RemoteAddr remote;
    std::unique_ptr<Link> base;
    int connect_tries = 0;
    int hello_tries = 0;
    bool done = false;
  };

  void start_connect(const std::shared_ptr<Attempt>& at);
  void send_hello(const std::shared_ptr<Attempt>& at);
  void finish_connect(const std::shared_ptr<Attempt>& at,
                      core::ByteView first_frame);

  double max_loss_;
};

}  // namespace padico::vlink
