// EventQueue — the engine's hierarchical timing wheel (Varghese &
// Lauck, SOSP 1987), three levels deep.
//
// Time is cut into BLOCKS of `ring_ticks` ticks (1 tick = 1 ns); `base`
// is the last popped instant and the current block is the one holding
// it.  Pending events live at one of three levels:
//
//   * the NEAR RING, one bucket per tick of the current block: the
//     events from `base` up to the block's end.  Each bucket is an
//     intrusive FIFO list of event nodes, and a two-level occupancy
//     bitmap finds the next non-empty tick with a couple of ctz scans;
//   * the COARSE WHEEL, 1024 slots, one per block for the next 1024
//     blocks (134 ms at the default width: every WAN hop).  A slot is
//     an intrusive FIFO list plus one bit of a bitmap, so empty slots
//     are skipped, never stepped through;
//   * the FAR HEAP, a binary min-heap on (time, seq), for the rest.
//
// Entries only move down, heap to wheel to ring, and always before
// pop() returns.  When `base` enters a block, that block's slot
// cascades into the ring in list order, and the heap entries the
// wheel then covers move into their slots in heap order.  A lower
// level therefore never holds an entry scheduled after an upper
// level's entry for the same tick, so pop order is exactly the
// `std::map<(t, seq), fn>` order the seed engine had: strictly
// increasing (t, seq), FIFO within an instant.  The seed's map queue
// survives as a test/bench oracle (bench/map_oracle.hpp):
// `test_event_queue` proves the order against it bit for bit and
// `bench_engine` gates the speed-up over it.
//
// Event nodes are 64 B and never move: they live in fixed chunks with
// a free list, push builds the closure straight into its node, and
// pop hands the node out so the engine runs the closure where it lies
// before releasing it.  Steady-state scheduling allocates nothing.  A
// node can also be parked: built but held by no level, for a caller
// that keeps its own queue of node handles (net::Arbitration).
//
// Ordering contract: the caller assigns seq monotonically and never
// pushes t below the last popped time (the engine clamps to now()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
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
  /// Width of a block in ticks (= nanoseconds): the near ring's size
  /// and one wheel slot's span.  Must be a power of two (the
  /// constructor rounds up); 1 is the degenerate configuration the
  /// determinism tests exercise, where the ring holds only the current
  /// instant.  The default covers intra-cluster delivery (50 us LAN
  /// latency plus serialization) so steady-state frame traffic stays
  /// in the ring or the next wheel slot, both O(1), and its wheel
  /// reaches 134 ms, past every WAN hop.
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
  /// Node handle returned by pop() when the queue is empty.
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Slots of the coarse wheel; each spans `ring_ticks`.
  static constexpr std::uint32_t kWheelSlots = 1024;

  explicit EventQueue(const QueueConfig& cfg);
  /// Destroys every pending closure exactly once.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  std::uint32_t ring_ticks() const noexcept { return cfg_.ring_ticks; }

  /// Events currently in the near ring / beyond it (wheel plus heap).
  std::size_t ring_size() const noexcept { return ring_count_; }
  std::size_t overflow_size() const noexcept {
    return size_ - ring_count_;
  }
  /// Non-empty ring buckets (the tracer's occupancy gauge).
  std::size_t occupied_buckets() const noexcept { return occupied_; }

  /// Enqueue `f`, built in place in a pooled node (an EventFn argument
  /// must be an rvalue; it is moved in once).  `t` must be >= the last
  /// popped time; `seq` strictly increasing across all pushes.
  template <typename F>
  void push(SimTime t, std::uint64_t seq, F&& f) {
    const std::uint32_t idx = alloc_node();
    try {
      node(idx).fn.emplace(std::forward<F>(f));
      link(t, seq, idx);
    } catch (...) {
      release(idx);
      throw;
    }
  }

  /// Build `f` in a pooled node that no level holds (a parked closure,
  /// see Engine::park) and return the node; it counts in no size until
  /// `release`.  An EventFn argument must be an rvalue.
  template <typename F>
  std::uint32_t park(F&& f) {
    const std::uint32_t idx = alloc_node();
    try {
      node(idx).fn.emplace(std::forward<F>(f));
    } catch (...) {
      release(idx);
      throw;
    }
    return idx;
  }

  /// Unlink the (t, seq)-minimum: its instant goes to `t_out` and its
  /// node is returned, out of every list until `release`; kNone when
  /// empty.  Consecutive pops at one instant hit a cached bucket — a
  /// same-timestamp batch never re-probes the bitmaps or the heap.
  std::uint32_t pop(SimTime& t_out) noexcept;

  /// The closure of a popped or parked node.  Nodes never move, so it
  /// may run in place while it pushes more events.
  EventFn& fn(std::uint32_t idx) noexcept { return node(idx).fn; }

  /// Destroy a popped or parked node's closure and return the node to
  /// the pool.
  void release(std::uint32_t idx) noexcept {
    Node& n = node(idx);
    n.fn.reset();
    n.next = free_head_;
    free_head_ = idx;
  }

 private:
  static constexpr std::uint32_t kNil = kNone;
  static constexpr std::uint32_t kSlotMask = kWheelSlots - 1;
  // 256 nodes (16 KB) per chunk: 4096-node chunks raised `wan_bulk`'s
  // peak RSS, whose queue never holds more than ~40 events.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

  // `next` and `aux` sit in EventFn's tail padding.  A node stores no
  // instant: a ring entry's comes from its bucket, a heap entry keeps
  // it in its HeapItem, and a wheel entry keeps its ring bucket in
  // `aux` (its slot gives the block).  A bucket or slot is FIFO by
  // construction and a heap entry carries its own seq, so a node needs
  // none.
  struct alignas(64) Node {
    [[no_unique_address]] EventFn fn;
    std::uint32_t next = kNil;
    std::uint32_t aux = 0;
  };
  static_assert(sizeof(Node) == 64, "an event node is one cache line");

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct HeapItem {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct FreeChunk {
    void operator()(Node* chunk) const noexcept {
      ::operator delete(chunk, std::align_val_t{alignof(Node)});
    }
  };

  Node& node(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift].get()[idx & (kChunkNodes - 1)];
  }
  std::uint32_t alloc_node() {
    if (free_head_ == kNil) return cut_node();
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  /// Construct the next never-used node, adding a chunk when full.
  std::uint32_t cut_node();
  /// File a node holding a built closure at its level.
  void link(SimTime t, std::uint64_t seq, std::uint32_t idx);
  void ring_append(std::uint32_t bucket, std::uint32_t idx) noexcept;
  void wheel_append(SimTime t, std::uint32_t idx) noexcept;
  /// First occupied ring bucket at or after `from`; the ring must not
  /// be empty.
  std::uint32_t ring_find_from(std::uint32_t from) const noexcept;
  /// First occupied wheel slot at or after `from`, wrapping; the wheel
  /// must not be empty.
  std::uint32_t wheel_find_from(std::uint32_t from) const noexcept;
  /// With the ring empty, enter the block of the earliest event.
  void advance() noexcept;
  void heap_push(HeapItem item);
  HeapItem heap_pop() noexcept;

  QueueConfig cfg_;
  std::uint32_t mask_ = 0;   // ring_ticks - 1
  std::uint32_t shift_ = 0;  // log2(ring_ticks)

  std::vector<std::unique_ptr<Node, FreeChunk>> chunks_;
  std::uint32_t cut_ = 0;  // nodes constructed so far
  std::uint32_t free_head_ = kNil;

  std::vector<List> ring_;
  std::vector<std::uint64_t> bits_;     // one bit per bucket
  std::vector<std::uint64_t> summary_;  // one bit per bits_ word
  std::array<List, kWheelSlots> wheel_{};
  std::array<std::uint64_t, kWheelSlots / 64> wheel_bits_{};
  std::uint64_t wheel_summary_ = 0;  // one bit per wheel_bits_ word
  std::vector<HeapItem> heap_;

  SimTime base_ = 0;  // last popped time
  std::size_t size_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t wheel_count_ = 0;
  std::size_t occupied_ = 0;
  // Cached bucket of the instant being drained (the batch fast path).
  std::uint32_t cur_bucket_ = kNil;
};

}  // namespace padico::core
