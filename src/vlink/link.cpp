#include "vlink/link.hpp"

#include <utility>

namespace padico::vlink {

core::Completion<core::Bytes> Link::read_n(std::size_t n) {
  core::Completion<core::Bytes> c;
  if (pending_.empty() && available() >= n) {
    c.complete(take(n));
    return c;
  }
  pending_.push_back(PendingRead{n, c});
  return c;
}

core::Bytes Link::deliver(core::Bytes frame, std::size_t offset,
                          core::SharedBytes tail) {
  if (datagram_handler_) {
    // Framed mode: the adapter stacked on this link consumes whole
    // transport messages, flattened into one view; nothing enters the
    // stream buffer.  Invoke a local copy: handshake completion swaps
    // the handler from INSIDE this call (the adapter takes over the
    // link), and replacing a std::function mid-invocation would
    // destroy its captures under the running closure.
    const core::ByteView t = tail.view();
    frame.insert(frame.end(), t.begin(), t.end());
    auto handler = datagram_handler_;
    handler(core::ByteView(frame.data() + offset, frame.size() - offset));
    return frame;
  }
  if (available() == 0) {
    // Drained: nothing buffered is still owed to a reader, and views
    // handed out by read_available() end here — adopt the frame, and
    // read a tail behind a bare header in place.
    rx_buf_.swap(frame);
    rx_head_ = static_cast<std::uint32_t>(offset);
    rx_tail_ = {};
    if (!tail.empty() && offset == rx_buf_.size()) {
      rx_tail_ = std::move(tail);
      rx_head_ = 0;
    }
  } else {
    if (!rx_tail_.empty()) {
      // A lagging reader left tail bytes unread: copy them out, so the
      // stream is one owned buffer again and FIFO order holds.
      const core::ByteView rest = stream().subview(rx_head_, available());
      rx_buf_.assign(rest.begin(), rest.end());
      rx_head_ = 0;
      rx_tail_ = {};
    }
    rx_buf_.insert(rx_buf_.end(),
                   frame.begin() + static_cast<std::ptrdiff_t>(offset),
                   frame.end());
  }
  // A tail not read in place is appended: one copy.
  const core::ByteView t = tail.view();
  rx_buf_.insert(rx_buf_.end(), t.begin(), t.end());
  drain();
  if (ready_handler_) ready_handler_();
  if (available() == 0) {
    // Consumed within this delivery (queued reads, or the ready handler
    // through read_available): hand the buffer back and drop the tail
    // now rather than holding them until the next frame, so a drained
    // link keeps no storage.  Views the handler fetched end here.
    frame.swap(rx_buf_);
    rx_buf_ = core::Bytes();
    rx_head_ = 0;
    rx_tail_ = {};
  }
  return frame;
}

void Link::mark_eof() {
  if (eof_) return;
  eof_ = true;
  if (ready_handler_) ready_handler_();
}

core::ByteView Link::read_available() {
  const core::ByteView s = stream();
  const core::ByteView out = s.subview(rx_head_, s.size() - rx_head_);
  rx_head_ = static_cast<std::uint32_t>(s.size());
  return out;
}

core::Bytes Link::take(std::size_t n) {
  const core::ByteView s = stream();
  core::Bytes out(s.begin() + rx_head_, s.begin() + rx_head_ + n);
  rx_head_ += static_cast<std::uint32_t>(n);
  if (!rx_tail_.empty()) {
    // A read ends earlier views, so a consumed tail goes at once.
    if (rx_head_ == s.size()) {
      rx_tail_ = {};
      rx_head_ = static_cast<std::uint32_t>(rx_buf_.size());
    }
  } else if (rx_head_ > 4096 && std::size_t{rx_head_} * 2 >= rx_buf_.size()) {
    // Compact once the dead prefix dominates to keep reassembly O(n).
    rx_buf_.erase(rx_buf_.begin(),
                  rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_head_));
    rx_head_ = 0;
  }
  return out;
}

void Link::drain() {
  while (!pending_.empty()) {
    if (available() < pending_.front().n) break;
    PendingRead req = std::move(pending_.front());
    pending_.erase(pending_.begin());
    // complete() may resume a coroutine that immediately calls read_n
    // or post_write again; the queue is in a consistent state here.
    req.completion.complete(take(req.n));
  }
}

}  // namespace padico::vlink
