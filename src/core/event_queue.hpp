// EventQueue — the engine's two-level calendar queue.
//
// The old engine kept every pending event in a
// `std::map<(SimTime, seq), std::function>`: one red-black-tree node
// allocation plus a rebalance per event, and usually a second heap
// allocation inside the std::function.  This queue replaces it with:
//
//   * a NEAR RING of per-tick (1 ns) buckets covering the window
//     [base, base + ring_ticks): each bucket is an intrusive FIFO list
//     of pooled event nodes, with a two-level occupancy bitmap so the
//     next non-empty tick is found with a couple of ctz scans;
//   * a FAR HEAP (binary min-heap ordered by (time, seq)) for events
//     beyond the window; entries migrate to the ring as the window
//     slides forward, BEFORE any new push can target the same tick, so
//     FIFO-within-timestamp order is exactly the map's (a heap entry
//     for tick T was necessarily scheduled before any ring entry for
//     T — the window boundary only grows);
//   * a NODE POOL with a freelist: steady-state scheduling allocates
//     nothing.
//
// The seed's std::map queue survives only as a test/bench oracle
// (bench/map_oracle.hpp): `test_event_queue` proves pop order
// matches it bit-for-bit and `bench_engine` gates the speedup over it.
//
// Ordering contract (identical to the map): pop order is strictly
// increasing (t, seq); the caller assigns seq monotonically and never
// pushes t below the last popped time (the engine clamps to now()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/inplace_fn.hpp"
#include "core/time.hpp"

namespace padico::core {

/// The engine's event closure.  48 inline bytes fit every hot closure
/// in the stack (a pointer, two node ids and a Bytes handle); larger
/// captures fall back to one heap allocation, same as std::function.
using EventFn = InplaceFn<48>;

struct QueueConfig {
  /// Width of the near-future window in ticks (= nanoseconds).  Must
  /// be a power of two; 1 is the degenerate "everything in the heap
  /// except the current instant" configuration the determinism tests
  /// exercise.  The default covers intra-cluster delivery (50 us LAN
  /// latency plus serialization) so steady-state frame traffic stays
  /// on the O(1) ring; only WAN hops (ms-scale) take the far heap.
  std::uint32_t ring_ticks = 131072;
};

/// Process-global default picked up by default-constructed Engines
/// (the Grid and Scenario build their engines internally; tests and
/// benches flip this to run the same workload under another queue).
QueueConfig& default_queue_config() noexcept;

/// RAII: swap the process default, restore on destruction.
class ScopedQueueConfig {
 public:
  explicit ScopedQueueConfig(const QueueConfig& cfg) noexcept
      : saved_(default_queue_config()) {
    default_queue_config() = cfg;
  }
  ~ScopedQueueConfig() { default_queue_config() = saved_; }
  ScopedQueueConfig(const ScopedQueueConfig&) = delete;
  ScopedQueueConfig& operator=(const ScopedQueueConfig&) = delete;

 private:
  QueueConfig saved_;
};

class EventQueue {
 public:
  explicit EventQueue(const QueueConfig& cfg);
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  std::uint32_t ring_ticks() const noexcept { return cfg_.ring_ticks; }

  /// Events currently in the near ring / the far heap.
  std::size_t ring_size() const noexcept { return ring_count_; }
  std::size_t overflow_size() const noexcept {
    return size_ - ring_count_;
  }
  /// Non-empty ring buckets (the tracer's occupancy gauge).
  std::size_t occupied_buckets() const noexcept { return occupied_; }

  /// Enqueue. `t` must be >= the last popped time; `seq` strictly
  /// increasing across all pushes.
  void push(SimTime t, std::uint64_t seq, EventFn fn);

  /// Dequeue the (t, seq)-minimum into `t_out` / `fn_out`.  Returns
  /// false when empty.  Consecutive pops at one instant hit a cached
  /// bucket pointer — draining a same-timestamp batch never re-probes
  /// the bitmap or the heap.
  bool pop(SimTime& t_out, EventFn& fn_out);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // A ring bucket is FIFO by construction and a far-heap entry carries
  // its own seq, so a node needs none.
  struct Node {
    EventFn fn;
    SimTime t = 0;
    std::uint32_t next = kNil;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct HeapItem {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t node;
  };

  std::uint32_t alloc_node(SimTime t, EventFn fn);
  void free_node(std::uint32_t idx) noexcept;
  void bucket_append(std::uint32_t bucket, std::uint32_t node) noexcept;
  void bit_set(std::uint32_t bucket) noexcept;
  void bit_clear(std::uint32_t bucket) noexcept;
  /// First occupied bucket at or after `from` in rotated (window)
  /// order; kNil when the ring is empty.
  std::uint32_t find_first_from(std::uint32_t from) const noexcept;
  void migrate_overflow() noexcept;
  void heap_push(HeapItem item);
  HeapItem heap_pop() noexcept;

  QueueConfig cfg_;
  std::uint32_t mask_ = 0;  // ring_ticks - 1

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> bits_;     // one bit per bucket
  std::vector<std::uint64_t> summary_;  // one bit per bits_ word
  std::vector<HeapItem> heap_;

  SimTime base_ = 0;  // window start = last popped time
  std::size_t size_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t occupied_ = 0;
  // Cached bucket of the instant being drained (the batch fast path).
  std::uint32_t cur_bucket_ = kNil;
};

}  // namespace padico::core
