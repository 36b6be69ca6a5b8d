// MadIO: tag multiplexing over one Madeleine channel, with the paper's
// header-combining trick as a real code-path difference.
//
// Every logical stream (Tag) shares one Madeleine channel.  Each
// message carries a 24-byte control header (the shared wire::Header:
// tag in the port fields, per-(tag, destination) sequence in conn_id):
//
//   combining ON  (default): the header is packed as the first segment
//     of the data message, so header + payload travel as ONE hardware
//     message — multiplexing costs only the extra header bytes.
//   combining OFF (naive):   the header travels as its OWN hardware
//     message (FrameType::header) immediately before the payload
//     message — every send pays a full extra per-message cost, which is
//     exactly what the section 4.1 ablation measures.
//
// Both ends of a grid run the same mode, so a receiver drops (and
// counts in dropped()) any control header of the other mode's type.
// Only a naive receiver holds detached headers whose payload is still
// due, and only it looks a received message up among them: with
// combining on, a message costs no lookup there.
//
// Received messages are not dispatched inline: MadIO hands them to the
// node's NetAccess, whose Arbitration decides when the tag handler
// runs relative to IP-side traffic.
//
// Tags need no reservation across layers: a circuit's tag lives on the
// circuit's own Madeleine channel (madeleine/circuit.hpp), so it never
// meets MadIO's tags.
//
// Units / ownership / determinism: this layer adds no virtual time of
// its own — its cost is the header bytes it puts on the wire plus the
// NetAccess dispatch below.  A MadIO borrows its NetAccess and
// Madeleine (the Grid's SAN stack owns all three, bottom-up) and owns
// its bootstrap channel (always Madeleine channel 0).  Handlers live in
// a hash map and the per-(tag, node) sequence numbers in a SeqBook's
// flat table — dispatch does point lookups only, never iterates
// either, so slot order cannot leak into dispatch traces.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "madeleine/madeleine.hpp"
#include "net/netaccess.hpp"
#include "net/seqbook.hpp"
#include "net/tag.hpp"
#include "vlink/wire.hpp"

namespace padico::net {

class MadIO {
 public:
  using Handler = std::function<void(core::NodeId src, mad::UnpackHandle&)>;

  /// Tag reserved for the vlink adapter (MadIODriver).
  static constexpr Tag kVLinkTag = 0xFFFF;

  MadIO(NetAccess& access, mad::Madeleine& madeleine,
        bool header_combining = true);
  MadIO(const MadIO&) = delete;
  MadIO& operator=(const MadIO&) = delete;

  NetAccess& access() const noexcept { return *access_; }
  mad::Madeleine& madeleine() const noexcept { return *mad_; }
  bool header_combining() const noexcept { return combining_; }

  /// Declare a logical stream.  Sending on an undeclared tag opens it
  /// implicitly; receiving on a tag with no handler counts as dropped.
  void open_logical(Tag tag);

  /// Install (or, with an empty handler, clear) the handler of `tag`.
  void set_handler(Tag tag, Handler handler);

  /// Open a message on `tag` towards `dst`.  With combining on, the
  /// control header is already packed as the first segment.
  mad::PackHandle begin(Tag tag, core::NodeId dst);

  /// Flush.  With combining off this sends the detached header message
  /// first, then the payload message.
  void end(mad::PackHandle handle, Tag tag, core::NodeId dst);

  /// Convenience for the common single-segment case:
  /// begin + pack(data, safer) + end.
  void send(Tag tag, core::NodeId dst, core::ByteView data) {
    mad::PackHandle handle = begin(tag, dst);
    handle.pack(data, mad::SendMode::safer);
    end(std::move(handle), tag, dst);
  }

  bool reaches(core::NodeId node) const;

  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Control headers whose per-(tag, source) sequence number did not
  /// follow its predecessor.  Always 0 on a reliable SAN; a nonzero
  /// count means header/payload pairing can no longer be trusted.
  std::uint64_t seq_gaps() const noexcept { return seq_.gaps(); }

 private:
  void on_channel_message(core::NodeId src, mad::UnpackHandle& handle);
  void dispatch(Tag tag, core::NodeId src, mad::UnpackHandle handle);
  core::Bytes make_header(Tag tag, core::NodeId dst,
                          vlink::wire::FrameType type);

  /// The per-tag pending gauge (`madio.tag.<tag>.pending`), created on
  /// first use; measures messages handed to the arbitration but not
  /// yet run — the per-tag queue depth upper layers tune against.
  obs::Gauge& tag_pending(Tag tag);

  NetAccess* access_;
  mad::Madeleine* mad_;
  mad::Channel* channel_;
  core::Engine* engine_;
  bool combining_;
  // obs instrumentation (cached registry slots).
  obs::Counter* obs_sends_;
  obs::Counter* obs_combined_;
  obs::Counter* obs_split_;
  obs::Counter* obs_dispatches_;
  obs::Counter* obs_dropped_;
  obs::Histogram* obs_depth_;
  obs::Histogram* obs_bytes_;
  std::map<Tag, obs::Gauge*> tag_gauges_;
  // Per-message lookups — hash maps; tag_gauges_ stays ordered (cold,
  // touched at registration time only).
  std::unordered_map<Tag, Handler> handlers_;
  // Send keyed (tag, destination), receive keyed (tag, source).
  SeqBook<std::pair<Tag, core::NodeId>> seq_;
  // Combining off only: control header seen, payload message still due.
  std::unordered_map<core::NodeId, vlink::wire::Header> pending_;
  std::uint64_t dropped_ = 0;
};

}  // namespace padico::net
