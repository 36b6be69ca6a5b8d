// Arbitration: the paper's SysIO/MadIO interleaving policy.
//
// PadicoTM funnels every network event of a node — SAN-side (Madeleine
// polling, "mad") and IP-side (socket readiness, "sys") — through one
// single-threaded I/O manager.  This class models that manager's poll
// loop in virtual time: incoming events are queued per substrate and
// dispatched by a weighted round-robin pump.  Each dispatch costs
// `dispatch_cost` (one poll iteration); moving the pump from one
// substrate to the other costs `switch_cost` on top (polling the other
// API).  The weights say how many events one substrate may dispatch
// before the pump considers switching — the dynamically tunable policy
// knob of section 4.1 (`node.arbitration().set_policy(sys, mad)`).
//
// The pump is sticky: with only one substrate active it never pays the
// switch cost, so an uncontended stream sees a constant per-message
// overhead — the property the latency reproductions rely on.
//
// Units / ownership / determinism: `dispatch_cost` / `switch_cost` are
// virtual nanoseconds.  An Arbitration borrows its Engine and is the
// node's whole NetAccess layer: the grid Node holds it by value
// (`node.arbitration()`), MadIO and the circuits enqueue on it
// directly, and the Grid's dispatch hook on each IP driver parks its
// frames here (enqueue_parked).  A queued closure is built once,
// parked in an engine event node that never moves (core::Engine::park),
// and runs there when dispatched; the Arbitration owns it until then
// and drops it unrun when it dies, so an Arbitration must die before
// its Engine.
// Each substrate's queue is a `HandleRing` of 4-byte node handles: a
// FIFO that allocates nothing until its first enqueue, then reuses its
// storage, so an idle node pays no heap for either queue.  The pump's
// state machine is driven only by engine events, so dispatch order is
// bit-identical across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/engine.hpp"

namespace padico::net {

/// The two event sources the I/O manager multiplexes.
enum class Substrate : std::uint8_t { sys = 0, mad = 1 };

class Arbitration {
 public:
  explicit Arbitration(core::Engine& engine);
  Arbitration(const Arbitration&) = delete;
  Arbitration& operator=(const Arbitration&) = delete;
  /// Drops every closure still queued, unrun.
  ~Arbitration();

  /// Set the interleave weights (events per turn); clamped to >= 1.
  /// May be called at any time, including mid-run.
  void set_policy(int sys_weight, int mad_weight);

  int sys_weight() const noexcept { return weight_[0]; }
  int mad_weight() const noexcept { return weight_[1]; }

  /// Tune the virtual cost of one poll iteration and of switching the
  /// pump between substrates.
  void set_costs(core::Duration dispatch_cost, core::Duration switch_cost) {
    dispatch_cost_ = dispatch_cost;
    switch_cost_ = switch_cost;
  }
  core::Duration dispatch_cost() const noexcept { return dispatch_cost_; }
  core::Duration switch_cost() const noexcept { return switch_cost_; }

  /// Queue one event for dispatch under the policy.  The callable is
  /// built once, in a parked engine node (no allocation per queued
  /// frame), and runs there; an EventFn argument must be an rvalue.
  template <typename F>
  void enqueue(Substrate s, F&& fn) {
    enqueue_parked(s, engine_->park(std::forward<F>(fn)));
  }

  /// Queue a closure the caller parked on this Arbitration's engine
  /// (core::Engine::park); the Arbitration owns it from here on.
  void enqueue_parked(Substrate s, std::uint32_t handle);

  std::uint64_t dispatched(Substrate s) const noexcept {
    return dispatched_[static_cast<int>(s)];
  }
  std::size_t queued(Substrate s) const noexcept {
    return queue_[static_cast<int>(s)].size();
  }

 private:
  /// One substrate's FIFO: a power-of-two ring of parked-node
  /// handles.  Empty until the first push, which makes one slot; it
  /// doubles when full and never shrinks, so it ends at the deepest
  /// backlog its node saw and a steady stream of events allocates
  /// nothing.
  class HandleRing {
   public:
    bool empty() const noexcept { return size_ == 0; }
    std::size_t size() const noexcept { return size_; }

    void push(std::uint32_t handle);
    /// Remove and return the oldest handle; the ring must not be empty.
    std::uint32_t pop() noexcept;

   private:
    std::size_t mask() const noexcept { return slots_.size() - 1; }

    std::vector<std::uint32_t> slots_;  // size 0 or a power of two
    std::size_t head_ = 0;              // index of the oldest handle
    std::size_t size_ = 0;
  };

  void pump();

  core::Engine* engine_;
  HandleRing queue_[2];
  int weight_[2] = {1, 1};
  core::Duration dispatch_cost_ = core::nanoseconds(40);
  core::Duration switch_cost_ = core::nanoseconds(500);
  int cur_ = static_cast<int>(Substrate::mad);  // SAN polled first
  int credit_ = 1;
  bool pumping_ = false;
  std::uint64_t dispatched_[2] = {0, 0};
  // obs instrumentation (cached registry slots; see DESIGN.md
  // "Observability" for the name scheme).
  obs::Counter* obs_turns_;
  obs::Counter* obs_switches_;
  obs::Counter* obs_dispatch_[2];
  obs::Counter* obs_dispatch_ns_[2];
};

}  // namespace padico::net
