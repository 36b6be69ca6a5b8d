// Deterministic virtual-time event engine.
//
// The engine owns a single totally-ordered event queue keyed by
// (timestamp, insertion sequence number).  Two events scheduled for the
// same instant run in the order they were scheduled, so a given program
// produces a bit-identical event trace on every run — the property all
// reproduction benchmarks rely on.  See DESIGN.md "Timing model".
//
// The queue is a three-level timing wheel (a ring of per-ns buckets, a
// coarse wheel of ring-wide slots and a far heap; see
// core/event_queue.hpp).  A closure is built straight into its pooled
// node and runs there; a parked closure (`park`) is built the same way
// for a layer that queues node handles of its own.  See DESIGN.md
// "Engine internals".
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/bytes.hpp"
#include "core/event_queue.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace padico::core {

class Engine {
 public:
  /// Event closure: 48 bytes of inline capture, heap fallback beyond
  /// (see core/inplace_fn.hpp).  Move-only.
  using EventFn = core::EventFn;

  /// Default-constructed engines take the process-wide
  /// `default_queue_config()` — how tests and benches run engines
  /// built deep inside Grid/Scenario under another ring width.
  Engine() : Engine(default_queue_config()) {}
  explicit Engine(const QueueConfig& cfg) : queue_(cfg) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual instant.  Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` at absolute instant `t`.  A timestamp in the past is
  /// clamped to `now()` (the event still runs after the current one).
  /// The callable is built in its queue node: copied from an lvalue,
  /// moved from an rvalue, like std::function (an EventFn argument must
  /// be an rvalue).
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    if (t < now_) t = now_;
    queue_.push(t, seq_++, std::forward<F>(fn));
    pending_gauge_->set(static_cast<std::int64_t>(queue_.size()));
  }

  /// Schedule `fn` at `now() + d`.
  template <typename F>
  void schedule_after(Duration d, F&& fn) {
    schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Schedule `fn` at the current instant (after already-queued
  /// same-instant events).
  template <typename F>
  void post(F&& fn) {
    schedule_at(now_, std::forward<F>(fn));
  }

  /// Build `fn` in a pooled event node that no queue level holds and
  /// return the node's handle: a parked closure, for a layer that
  /// keeps its own FIFO of handles (net::Arbitration).  It never moves
  /// and does not count in pending_count(); run_parked runs it in
  /// place, drop_parked destroys it unrun, and one of them must.
  template <typename F>
  std::uint32_t park(F&& fn) {
    return queue_.park(std::forward<F>(fn));
  }

  /// Run parked closure `handle` where it lies, then free its node
  /// (also when the closure throws).  Not an event: nothing is counted
  /// and now() does not move.
  void run_parked(std::uint32_t handle);

  /// Destroy parked closure `handle` unrun and free its node.
  void drop_parked(std::uint32_t handle) noexcept { queue_.release(handle); }

  /// True while at least one event is queued.
  bool pending() const noexcept { return !queue_.empty(); }

  std::size_t pending_count() const noexcept { return queue_.size(); }

  /// Total events dispatched since construction.
  std::uint64_t processed() const noexcept { return processed_; }

  /// The event queue itself (ring/overflow occupancy, configuration).
  const EventQueue& queue() const noexcept { return queue_; }

  /// Refresh the queue-shape gauges (`engine.ring`, `engine.overflow`,
  /// `engine.buckets`) from the queue's current state.  The depth
  /// gauge `engine.pending` is maintained on every schedule; the shape
  /// gauges are snapshot-on-demand so the hot path stays lean.
  void publish_queue_gauges() noexcept;

  /// Pool of recycled `Bytes` buffers for frame-sized payloads — the
  /// simnet/vlink TX path acquires here and the RX path releases, so
  /// steady-state frame traffic stops allocating (see core/bytes.hpp).
  BytesPool& bytes_pool() noexcept { return bytes_pool_; }

  /// This engine's metrics registry — every layer above records its
  /// named counters/gauges/histograms here (virtual-time only, so the
  /// determinism digest is unaffected).
  obs::Registry& obs() noexcept { return obs_; }
  const obs::Registry& obs() const noexcept { return obs_; }

  /// This engine's span/instant tracer (off unless a categories mask
  /// is enabled; see obs/trace.hpp).
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Dispatch the earliest event, advancing `now()`: its closure runs
  /// in its queue node, which is freed afterwards (also when the
  /// closure throws).  Returns false if the queue was empty.
  bool step();

  /// Dispatch events until the queue is empty.  Returns the number of
  /// events dispatched.  Same-instant batches drain off the queue's
  /// cached bucket without re-probing the queue head.
  std::size_t run_until_idle();

  /// Dispatch events until `stop()` returns true or the queue drains,
  /// whichever comes first.  `stop` is evaluated before each event.
  /// Returns the number of events dispatched — counted off `step()`'s
  /// return value, so a dispatch that doesn't happen isn't counted.
  template <typename Pred>
  std::size_t run_while_pending(Pred&& stop) {
    std::size_t n = 0;
    while (pending() && !stop()) {
      if (!step()) break;
      ++n;
    }
    return n;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  BytesPool bytes_pool_;
  obs::Registry obs_{&now_};
  obs::Tracer tracer_{&now_};
  obs::Counter* events_counter_ = &obs_.counter("engine.events");
  obs::Gauge* pending_gauge_ = &obs_.gauge("engine.pending");
  obs::Gauge* ring_gauge_ = &obs_.gauge("engine.ring");
  obs::Gauge* overflow_gauge_ = &obs_.gauge("engine.overflow");
  obs::Gauge* buckets_gauge_ = &obs_.gauge("engine.buckets");
};

}  // namespace padico::core
