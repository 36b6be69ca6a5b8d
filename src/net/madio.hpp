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
// node's Arbitration (the paper's NetAccess layer), which decides when
// the tag handler runs relative to IP-side traffic.  The dispatch
// closure holds the message itself — its tag's entry, the source, the
// read cursor, the pooled buffer and the shared tail — in EventFn's 48
// inline bytes, so queueing a message allocates nothing; the handler
// gets an UnpackHandle rebuilt around them, and what it leaves of the
// buffer goes back to the engine's pool.  The `madio.queued` span's start
// instant rides in the handle's scratch bytes
// (UnpackHandle::scratch(), the SAN driver header Madeleine has
// already consumed).
//
// Sending writes the control header straight into the message's
// pooled buffer (PackHandle::reserve); nothing per message allocates.
//
// Tags need no reservation across layers: a circuit's tag lives on the
// circuit's own Madeleine channel (madeleine/circuit.hpp), so it never
// meets MadIO's tags.
//
// Units / ownership / determinism: this layer adds no virtual time of
// its own — its cost is the header bytes it puts on the wire plus the
// arbitrated dispatch below.  A MadIO borrows its node's Arbitration
// (the grid Node owns it) and its Madeleine (the Grid's SAN stack owns
// both, bottom-up) and owns its bootstrap channel (always Madeleine
// channel 0).  Each tag has one
// entry, created when a handler is set or its first message arrives:
// the handler and the pending gauge.  A received message costs one
// hash lookup of its entry; the queued closure points at the entry,
// which never moves, so a handler may open tags while it runs.  The
// per-(tag, node) sequence numbers live in a SeqBook's flat table.
// Nothing iterates either table, so slot order cannot leak into
// dispatch traces.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

#include "madeleine/madeleine.hpp"
#include "net/arbitration.hpp"
#include "net/seqbook.hpp"
#include "net/tag.hpp"
#include "vlink/wire.hpp"

namespace padico::net {

class MadIO {
 public:
  using Handler = std::function<void(core::NodeId src, mad::UnpackHandle&)>;

  /// Tag reserved for the vlink adapter (MadIODriver).
  static constexpr Tag kVLinkTag = 0xFFFF;

  MadIO(Arbitration& arbitration, mad::Madeleine& madeleine,
        bool header_combining = true);
  MadIO(const MadIO&) = delete;
  MadIO& operator=(const MadIO&) = delete;

  mad::Madeleine& madeleine() const noexcept { return *mad_; }
  bool header_combining() const noexcept { return combining_; }

  /// Declare a logical stream (create its entry).  Sending needs no
  /// declaration; receiving on a tag with no handler counts as dropped.
  void open_logical(Tag tag) { entry(tag); }

  /// Install (or, with an empty handler, clear) the handler of `tag`.
  void set_handler(Tag tag, Handler handler);

  /// Open a message on `tag` towards `dst`, with room for `size_hint`
  /// packed bytes.  With combining on, the control header is already
  /// packed as the first segment.
  mad::PackHandle begin(Tag tag, core::NodeId dst, std::size_t size_hint = 0);

  /// Flush towards the tag and destination begin() fixed.  With
  /// combining off this sends the detached header message first, then
  /// the payload message.
  void end(mad::PackHandle handle);

  /// Convenience for the common single-segment case:
  /// begin + pack(data, safer) + end.
  void send(Tag tag, core::NodeId dst, core::ByteView data) {
    mad::PackHandle handle = begin(tag, dst, data.size());
    handle.pack(data, mad::SendMode::safer);
    end(std::move(handle));
  }

  bool reaches(core::NodeId node) const;

  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Control headers whose per-(tag, source) sequence number did not
  /// follow its predecessor.  Always 0 on a reliable SAN; a nonzero
  /// count means header/payload pairing can no longer be trusted.
  std::uint64_t seq_gaps() const noexcept { return seq_.gaps(); }

 private:
  /// One tag's state.  Entries are never erased and never move (map
  /// nodes), so a queued dispatch may point at its entry.
  struct TagEntry {
    MadIO* io;
    Handler handler;
    /// `madio.tag.<tag>.pending`, created at the tag's first dispatch:
    /// messages handed to the arbitration but not yet run — the
    /// per-tag queue depth upper layers tune against.
    obs::Gauge* pending = nullptr;
  };

  TagEntry& entry(Tag tag) {
    return tags_.try_emplace(tag, TagEntry{this, {}, nullptr}).first->second;
  }
  void on_channel_message(core::NodeId src, mad::UnpackHandle& handle);
  void dispatch(Tag tag, core::NodeId src, mad::UnpackHandle& handle);
  void run(TagEntry& entry, core::NodeId src, std::uint32_t cursor,
           core::Bytes buf, core::SharedBytes tail);
  /// Append the control header of the next message on (tag, dst).
  void pack_header(mad::PackHandle& handle, Tag tag, core::NodeId dst,
                   vlink::wire::FrameType type);

  Arbitration* arbitration_;
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
  std::unordered_map<Tag, TagEntry> tags_;
  // Send keyed (tag, destination), receive keyed (tag, source).
  SeqBook<std::pair<Tag, core::NodeId>> seq_;
  // Combining off only: control header seen, payload message still due.
  std::unordered_map<core::NodeId, vlink::wire::Header> pending_;
  std::uint64_t dropped_ = 0;
};

}  // namespace padico::net
