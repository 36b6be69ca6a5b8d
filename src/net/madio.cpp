#include "net/madio.hpp"

#include <cstring>
#include <string>

namespace padico::net {

namespace wire = vlink::wire;

MadIO::MadIO(Arbitration& arbitration, mad::Madeleine& madeleine,
             bool header_combining)
    : arbitration_(&arbitration),
      mad_(&madeleine),
      engine_(&madeleine.host().engine()),
      combining_(header_combining) {
  channel_ = mad_->open_channel();
  mad_->set_recv_handler(*channel_,
                         [this](core::NodeId src, mad::UnpackHandle& h) {
                           on_channel_message(src, h);
                         });
  obs::Registry& reg = engine_->obs();
  obs_sends_ = &reg.counter("madio.sends");
  obs_combined_ = &reg.counter("madio.hdr.combined");
  obs_split_ = &reg.counter("madio.hdr.split");
  obs_dispatches_ = &reg.counter("madio.dispatches");
  obs_dropped_ = &reg.counter("madio.dropped");
  obs_depth_ = &reg.histogram("madio.queue_depth");
  obs_bytes_ = &reg.histogram("madio.msg_bytes");
}

void MadIO::set_handler(Tag tag, Handler handler) {
  entry(tag).handler = std::move(handler);
}

bool MadIO::reaches(core::NodeId node) const {
  return mad_->driver().reaches(node);
}

void MadIO::pack_header(mad::PackHandle& handle, Tag tag, core::NodeId dst,
                        wire::FrameType type) {
  // Per-(tag, destination) stream sequence; shared header shape with
  // the circuit layer (net/tag.hpp), shared book with it too
  // (net/seqbook.hpp).  Encoded in place, in the message's buffer.
  wire::encode_into(
      tagged_header(tag, mad_->host().id(), seq_.next({tag, dst}), type),
      handle.reserve(wire::kHeaderSize));
}

mad::PackHandle MadIO::begin(Tag tag, core::NodeId dst,
                             std::size_t size_hint) {
  mad::PackHandle handle = mad_->begin_packing(
      *channel_, dst, (combining_ ? wire::kHeaderSize : 0) + size_hint);
  handle.set_context(tag);  // end() routes by what begin() declared
  if (combining_) {
    // Piggyback the control header onto the first data fragment: one
    // hardware message carries header + payload.
    pack_header(handle, tag, dst, wire::FrameType::data);
  }
  return handle;
}

void MadIO::end(mad::PackHandle handle) {
  obs_sends_->add();
  if (combining_) {
    obs_combined_->add();
  } else {
    obs_split_->add();
  }
  if (!combining_) {
    // Naive multiplexing: the control header is its own hardware
    // message, the payload follows bare.  The SAN driver's per-dst
    // FIFO keeps the pair ordered.
    mad::PackHandle header =
        mad_->begin_packing(*channel_, handle.dst(), wire::kHeaderSize);
    pack_header(header, static_cast<Tag>(handle.context()), handle.dst(),
                wire::FrameType::header);
    mad_->end_packing(std::move(header));
  }
  mad_->end_packing(std::move(handle));
}

void MadIO::on_channel_message(core::NodeId src, mad::UnpackHandle& handle) {
  // Only naive mode detaches headers, so only it has pending ones.
  if (!combining_) {
    auto pit = pending_.find(src);
    if (pit != pending_.end()) {
      // This whole message is the payload announced by the detached
      // header that preceded it.
      const Tag tag = pit->second.dst_port;
      pending_.erase(pit);
      dispatch(tag, src, handle);
      return;
    }
  }
  // Accept only the control header this mode sends (both ends of a
  // grid share the mode): a `header` frame reaching a combining MadIO
  // would hand the sender's next message, whole, to its tag.
  const wire::FrameType sent =
      combining_ ? wire::FrameType::data : wire::FrameType::header;
  const std::optional<wire::Header> h =
      wire::decode(handle.unpack(wire::kHeaderSize));
  if (!h || h->type != sent) {
    ++dropped_;
    obs_dropped_->add();
    return;
  }
  // The sender stamps a contiguous per-(tag, destination) sequence into
  // conn_id; on a reliable SAN it must arrive gap-free.
  seq_.observe({h->dst_port, src}, h->conn_id);
  if (!combining_) {
    pending_[src] = *h;  // payload message follows on the same FIFO
    return;
  }
  dispatch(h->dst_port, src, handle);
}

void MadIO::dispatch(Tag tag, core::NodeId src, mad::UnpackHandle& handle) {
  // Hand off to the node's I/O manager; the tag handler runs when the
  // arbitration policy says so.
  TagEntry& e = entry(tag);
  if (!e.pending) {
    e.pending = &engine_->obs().gauge("madio.tag." + std::to_string(tag) +
                                      ".pending");
  }
  e.pending->add(1);
  obs_depth_->record(static_cast<std::uint64_t>(e.pending->value()));
  obs_bytes_->record(handle.remaining() + handle.tail().size());
  // The queued span's start instant has no room in the closure; it
  // rides in the handle's scratch bytes.
  const core::SimTime t_post = engine_->now();
  static_assert(sizeof(t_post) <= mad::UnpackHandle::kScratch);
  std::memcpy(handle.scratch(), &t_post, sizeof(t_post));
  const auto cursor = static_cast<std::uint32_t>(handle.consumed());
  core::Bytes buf = handle.take_buffer();
  auto queued = [entry = &e, src, cursor, buf = std::move(buf),
                 tail = handle.take_tail()]() mutable {
    entry->io->run(*entry, src, cursor, std::move(buf), std::move(tail));
  };
  // One closure per SAN message: it must stay inside EventFn's inline
  // budget, or every message pays a heap allocation.
  static_assert(sizeof(queued) <= core::EventFn::kInlineSize);
  arbitration_->enqueue(Substrate::mad, std::move(queued));
}

void MadIO::run(TagEntry& entry, core::NodeId src, std::uint32_t cursor,
                core::Bytes buf, core::SharedBytes tail) {
  entry.pending->add(-1);
  obs_dispatches_->add();
  mad::UnpackHandle handle(std::move(buf), cursor, std::move(tail));
  obs::Tracer& tracer = engine_->tracer();
  if (tracer.enabled(obs::Cat::madio)) {
    // The queued span covers hand-off to the arbitration up to the
    // moment the tag handler starts running.
    core::SimTime t_post = 0;
    std::memcpy(&t_post, handle.scratch(), sizeof(t_post));
    tracer.complete(obs::Cat::madio, "madio.queued", t_post,
                    engine_->now() - t_post);
  }
  // Read before the handler runs: it may destroy this MadIO, never the
  // engine's pool.
  core::BytesPool& pool = engine_->bytes_pool();
  if (!entry.handler) {
    ++dropped_;
    obs_dropped_->add();
    pool.release(handle.take_buffer());
    return;
  }
  obs::Scope scope(tracer, obs::Cat::madio, "madio.dispatch");
  entry.handler(src, handle);
  pool.release(handle.take_buffer());
}

}  // namespace padico::net
