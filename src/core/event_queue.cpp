#include "core/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace padico::core {

namespace {

constexpr auto heap_later = [](const auto& a, const auto& b) noexcept {
  return a.t > b.t || (a.t == b.t && a.seq > b.seq);
};

}  // namespace

QueueConfig& default_queue_config() noexcept {
  static QueueConfig cfg;
  return cfg;
}

EventQueue::EventQueue(const QueueConfig& cfg) : cfg_(cfg) {
  std::uint32_t n = std::max<std::uint32_t>(cfg_.ring_ticks, 1);
  n = std::bit_ceil(n);
  cfg_.ring_ticks = n;
  mask_ = n - 1;
  shift_ = static_cast<std::uint32_t>(std::countr_zero(n));
  ring_.resize(n);
  bits_.assign((n + 63) / 64, 0);
  summary_.assign((bits_.size() + 63) / 64, 0);
  heap_.reserve(64);
}

EventQueue::~EventQueue() {
  // Free nodes hold empty closures; pending ones are destroyed here.
  for (std::uint32_t i = 0; i < cut_; ++i) node(i).~Node();
}

std::uint32_t EventQueue::cut_node() {
  if (cut_ == chunks_.size() * kChunkNodes) {
    // Raw storage: a node's page is touched only when the node is cut.
    std::unique_ptr<Node, FreeChunk> chunk(static_cast<Node*>(::operator new(
        kChunkNodes * sizeof(Node), std::align_val_t{alignof(Node)})));
    chunks_.push_back(std::move(chunk));
  }
  ::new (static_cast<void*>(chunks_.back().get() + (cut_ & (kChunkNodes - 1))))
      Node();
  return cut_++;
}

void EventQueue::ring_append(std::uint32_t bucket, std::uint32_t idx) noexcept {
  node(idx).next = kNil;
  List& bk = ring_[bucket];
  if (bk.head == kNil) {
    bk.head = bk.tail = idx;
    bits_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    summary_[bucket >> 12] |= std::uint64_t{1} << ((bucket >> 6) & 63);
    ++occupied_;
  } else {
    node(bk.tail).next = idx;
    bk.tail = idx;
  }
  ++ring_count_;
}

void EventQueue::wheel_append(SimTime t, std::uint32_t idx) noexcept {
  Node& n = node(idx);
  n.next = kNil;
  n.aux = static_cast<std::uint32_t>(t) & mask_;
  const std::uint32_t s = static_cast<std::uint32_t>(t >> shift_) & kSlotMask;
  List& slot = wheel_[s];
  if (slot.head == kNil) {
    slot.head = slot.tail = idx;
    wheel_bits_[s >> 6] |= std::uint64_t{1} << (s & 63);
    wheel_summary_ |= std::uint64_t{1} << (s >> 6);
  } else {
    node(slot.tail).next = idx;
    slot.tail = idx;
  }
  ++wheel_count_;
}

void EventQueue::link(SimTime t, std::uint64_t seq, std::uint32_t idx) {
  // Blocks ahead of base's: 0 is the ring, 1..kWheelSlots the wheel.
  const SimTime ahead = (t >> shift_) - (base_ >> shift_);
  if (ahead == 0) {
    ring_append(static_cast<std::uint32_t>(t) & mask_, idx);
  } else if (ahead <= kWheelSlots) {
    wheel_append(t, idx);
  } else {
    heap_push(HeapItem{t, seq, idx});
  }
  ++size_;
}

std::uint32_t EventQueue::ring_find_from(std::uint32_t from) const noexcept {
  // Every ring entry lies in [base, end of base's block), so buckets at
  // or after `from` (= base's bucket) in plain index order are
  // increasing-tick order: no wrap.
  const std::uint32_t w = from >> 6;
  const std::uint64_t first = bits_[w] & (~std::uint64_t{0} << (from & 63));
  if (first != 0) {
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(first));
  }
  const std::uint32_t next = w + 1;  // first whole word left to scan
  for (std::uint32_t sw = next >> 6; sw < summary_.size(); ++sw) {
    std::uint64_t s = summary_[sw];
    if (sw == next >> 6) s &= ~std::uint64_t{0} << (next & 63);
    if (s != 0) {
      const std::uint32_t word =
          (sw << 6) + static_cast<std::uint32_t>(std::countr_zero(s));
      return (word << 6) +
             static_cast<std::uint32_t>(std::countr_zero(bits_[word]));
    }
  }
  return kNil;
}

std::uint32_t EventQueue::wheel_find_from(std::uint32_t from) const noexcept {
  // Slot order starting at `from` and wrapping is increasing-block
  // order; word `w` may come round again (its low bits are the wheel's
  // last blocks).
  const std::uint32_t w = from >> 6;
  const std::uint64_t first =
      wheel_bits_[w] & (~std::uint64_t{0} << (from & 63));
  if (first != 0) {
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(first));
  }
  std::uint64_t s = wheel_summary_ & (~std::uint64_t{0} << (w + 1));
  if (s == 0) s = wheel_summary_;
  const std::uint32_t word = static_cast<std::uint32_t>(std::countr_zero(s));
  return (word << 6) +
         static_cast<std::uint32_t>(std::countr_zero(wheel_bits_[word]));
}

void EventQueue::heap_push(HeapItem item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), heap_later);
}

EventQueue::HeapItem EventQueue::heap_pop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), heap_later);
  const HeapItem item = heap_.back();
  heap_.pop_back();
  return item;
}

void EventQueue::advance() noexcept {
  // The ring is empty, so the earliest event lies in the first occupied
  // wheel slot or, with the wheel empty too, at the heap top.
  const SimTime cur = base_ >> shift_;
  SimTime block;
  if (wheel_count_ > 0) {
    const std::uint32_t from = static_cast<std::uint32_t>(cur + 1) & kSlotMask;
    block = cur + 1 + ((wheel_find_from(from) - from) & kSlotMask);
  } else {
    block = heap_.front().t >> shift_;
  }
  base_ = block << shift_;

  // Cascade the block's slot into the ring.  Its entries for a tick were
  // all pushed before any ring entry for that tick could be (that needs
  // base in this block), and list order is their (t, seq) order.
  const std::uint32_t s = static_cast<std::uint32_t>(block) & kSlotMask;
  List& slot = wheel_[s];
  if (slot.head != kNil) {
    for (std::uint32_t idx = slot.head; idx != kNil;) {
      const std::uint32_t next = node(idx).next;
      ring_append(node(idx).aux, idx);
      --wheel_count_;
      idx = next;
    }
    slot = List{};
    wheel_bits_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    if (wheel_bits_[s >> 6] == 0) {
      wheel_summary_ &= ~(std::uint64_t{1} << (s >> 6));
    }
  }

  // The wheel now reaches kWheelSlots blocks past this one: move the
  // heap entries it covers down, in (t, seq) order.  Their slots are
  // the ones just skipped or cascaded, so each lands ahead of any later
  // push for its tick.  Only a jump to the heap top lands entries in
  // the ring itself.
  while (!heap_.empty() &&
         (heap_.front().t >> shift_) - block <= kWheelSlots) {
    const HeapItem item = heap_pop();
    if ((item.t >> shift_) == block) {
      ring_append(static_cast<std::uint32_t>(item.t) & mask_, item.node);
    } else {
      wheel_append(item.t, item.node);
    }
  }
}

std::uint32_t EventQueue::pop(SimTime& t_out) noexcept {
  if (size_ == 0) return kNil;
  std::uint32_t bucket = cur_bucket_;
  if (bucket == kNil) {
    if (ring_count_ == 0) advance();
    bucket = ring_find_from(static_cast<std::uint32_t>(base_) & mask_);
  }
  List& bk = ring_[bucket];
  const std::uint32_t idx = bk.head;
  bk.head = node(idx).next;
  if (bk.head == kNil) {
    bk.tail = kNil;
    std::uint64_t& w = bits_[bucket >> 6];
    w &= ~(std::uint64_t{1} << (bucket & 63));
    if (w == 0) {
      summary_[bucket >> 12] &= ~(std::uint64_t{1} << ((bucket >> 6) & 63));
    }
    --occupied_;
    cur_bucket_ = kNil;
  } else {
    cur_bucket_ = bucket;
  }
  --size_;
  --ring_count_;
  base_ = (base_ & ~SimTime{mask_}) | bucket;
  t_out = base_;
  return idx;
}

}  // namespace padico::core
