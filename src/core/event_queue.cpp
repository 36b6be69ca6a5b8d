#include "core/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace padico::core {

QueueConfig& default_queue_config() noexcept {
  static QueueConfig cfg;
  return cfg;
}

EventQueue::EventQueue(const QueueConfig& cfg) : cfg_(cfg) {
  std::uint32_t n = std::max<std::uint32_t>(cfg_.ring_ticks, 1);
  n = std::bit_ceil(n);
  cfg_.ring_ticks = n;
  mask_ = n - 1;
  ring_.resize(n);
  bits_.assign((n + 63) / 64, 0);
  summary_.assign((bits_.size() + 63) / 64, 0);
  pool_.reserve(256);
  heap_.reserve(64);
}

std::uint32_t EventQueue::alloc_node(SimTime t, EventFn fn) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    Node& n = pool_[idx];
    free_head_ = n.next;
    n.fn = std::move(fn);
    n.t = t;
    n.next = kNil;
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{std::move(fn), t, kNil});
  }
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) noexcept {
  Node& n = pool_[idx];
  n.fn.reset();  // drop closure resources now, not at next reuse
  n.next = free_head_;
  free_head_ = idx;
}

void EventQueue::bit_set(std::uint32_t bucket) noexcept {
  bits_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  summary_[bucket >> 12] |= std::uint64_t{1} << ((bucket >> 6) & 63);
}

void EventQueue::bit_clear(std::uint32_t bucket) noexcept {
  std::uint64_t& w = bits_[bucket >> 6];
  w &= ~(std::uint64_t{1} << (bucket & 63));
  if (w == 0) {
    summary_[bucket >> 12] &= ~(std::uint64_t{1} << ((bucket >> 6) & 63));
  }
}

void EventQueue::bucket_append(std::uint32_t bucket,
                               std::uint32_t node) noexcept {
  Bucket& bk = ring_[bucket];
  if (bk.head == kNil) {
    bk.head = bk.tail = node;
    bit_set(bucket);
    ++occupied_;
  } else {
    pool_[bk.tail].next = node;
    bk.tail = node;
  }
}

std::uint32_t EventQueue::find_first_from(std::uint32_t from) const noexcept {
  // The window [base, base + N) maps bijectively onto bucket indices;
  // index order starting at `from` (= base & mask) and wrapping is
  // exactly increasing-tick order, so the first set bit in rotated
  // order is the earliest pending tick.
  std::uint32_t w = from >> 6;
  const std::uint64_t first = bits_[w] & (~std::uint64_t{0} << (from & 63));
  if (first != 0) {
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(first));
  }
  // Walk whole words circularly via the summary bitmap; word `w` may
  // legitimately come round again (its low bits are the window's
  // latest ticks).
  const std::uint32_t nsw = static_cast<std::uint32_t>(summary_.size());
  std::uint32_t start = (w + 1 == bits_.size()) ? 0 : w + 1;
  std::uint32_t sw = start >> 6;
  std::uint64_t s = summary_[sw] & (~std::uint64_t{0} << (start & 63));
  for (std::uint32_t i = 0; i <= nsw; ++i) {
    if (s != 0) {
      const std::uint32_t word =
          (sw << 6) + static_cast<std::uint32_t>(std::countr_zero(s));
      return (word << 6) +
             static_cast<std::uint32_t>(std::countr_zero(bits_[word]));
    }
    sw = (sw + 1 == nsw) ? 0 : sw + 1;
    s = summary_[sw];
  }
  return kNil;
}

void EventQueue::heap_push(HeapItem item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapItem& a, const HeapItem& b) {
                   return a.t > b.t || (a.t == b.t && a.seq > b.seq);
                 });
}

EventQueue::HeapItem EventQueue::heap_pop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapItem& a, const HeapItem& b) {
                  return a.t > b.t || (a.t == b.t && a.seq > b.seq);
                });
  const HeapItem item = heap_.back();
  heap_.pop_back();
  return item;
}

void EventQueue::migrate_overflow() noexcept {
  // Pull every overflow entry the window now covers into its bucket —
  // eagerly, before pop() returns, so no later push at the same tick
  // can slip in front of an earlier-scheduled (smaller-seq) event.
  // Heap pops come out in (t, seq) order, so same-tick entries land in
  // their bucket already FIFO.
  while (!heap_.empty() && heap_.front().t - base_ < cfg_.ring_ticks) {
    const HeapItem item = heap_pop();
    bucket_append(static_cast<std::uint32_t>(item.t) & mask_, item.node);
    ++ring_count_;
  }
}

void EventQueue::push(SimTime t, std::uint64_t seq, EventFn fn) {
  ++size_;
  if (t - base_ < cfg_.ring_ticks) {
    const std::uint32_t bucket = static_cast<std::uint32_t>(t) & mask_;
    const std::uint32_t node = alloc_node(t, std::move(fn));
    bucket_append(bucket, node);
    ++ring_count_;
  } else {
    const std::uint32_t node = alloc_node(t, std::move(fn));
    heap_push(HeapItem{t, seq, node});
  }
}

bool EventQueue::pop(SimTime& t_out, EventFn& fn_out) {
  if (size_ == 0) return false;
  std::uint32_t bucket = cur_bucket_;
  if (bucket == kNil) {
    if (ring_count_ > 0) {
      // Invariant: every overflow entry is >= base + N away, so any
      // ring occupant beats the heap.
      bucket = find_first_from(static_cast<std::uint32_t>(base_) & mask_);
    } else {
      // Ring empty: the heap top is the global minimum.
      const HeapItem top = heap_pop();
      Node& n = pool_[top.node];
      t_out = n.t;
      fn_out = std::move(n.fn);
      free_node(top.node);
      --size_;
      base_ = t_out;
      migrate_overflow();
      const std::uint32_t b = static_cast<std::uint32_t>(base_) & mask_;
      cur_bucket_ = ring_[b].head != kNil ? b : kNil;
      return true;
    }
  }

  Bucket& bk = ring_[bucket];
  const std::uint32_t node = bk.head;
  Node& n = pool_[node];
  t_out = n.t;
  fn_out = std::move(n.fn);
  bk.head = n.next;
  if (bk.head == kNil) {
    bk.tail = kNil;
    bit_clear(bucket);
    --occupied_;
    cur_bucket_ = kNil;
  } else {
    cur_bucket_ = bucket;
  }
  free_node(node);
  --size_;
  --ring_count_;
  if (t_out != base_) {
    base_ = t_out;
    migrate_overflow();
    // Migration may have refilled this very tick's bucket (same-tick
    // entries that were still in the heap have SMALLER seq than any
    // future push, so appending them now keeps FIFO order intact).
    if (cur_bucket_ == kNil && ring_[bucket].head != kNil) {
      cur_bucket_ = bucket;
    }
  }
  return true;
}

}  // namespace padico::core
