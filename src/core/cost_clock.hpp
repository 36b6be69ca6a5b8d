// CostModel and CostClock: the stack's one model of CPU in virtual time.
//
// A CostModel prices one implementation's per-message work; a CostClock
// is one serialized CPU that work queues on.  The middleware
// personalities (middleware/personality.hpp) and the scenario's
// per-node CPUs (scenario/scenario.hpp) charge CostModel costs to a
// CostClock, and the AdOC adapter's encoder and decoder charge their
// compression costs to one each (adapters/adoc.hpp).  Costs are virtual
// nanoseconds and the clock is plain arithmetic over the instant its
// caller passes in, so charges are bit-identical across runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/time.hpp"

namespace padico::core {

/// Per-message CPU cost profile of one middleware implementation.
/// `send/recv_overhead` model the fixed per-message work (protocol
/// headers, syscalls, JNI crossings); `copy_bytes_per_second` models a
/// copying marshaler's per-byte pass over the payload — 0 means the
/// implementation keeps a zero-copy path (omniORB's trick; Mico and
/// ORBacus pay it, which is exactly what caps them in Figure 3).
struct CostModel {
  Duration send_overhead = 0;
  Duration recv_overhead = 0;
  std::uint64_t copy_bytes_per_second = 0;

  Duration send_cost(std::size_t bytes) const {
    return send_overhead + copy_cost(bytes);
  }
  Duration recv_cost(std::size_t bytes) const {
    return recv_overhead + copy_cost(bytes);
  }
  Duration copy_cost(std::size_t bytes) const {
    if (copy_bytes_per_second == 0) return 0;
    return seconds(1) * bytes / copy_bytes_per_second;
  }
};

/// Serialized virtual CPU: one personality's message processing runs
/// one message at a time, so back-to-back charges queue behind each
/// other — the mechanism that turns a per-byte marshal cost into a
/// bandwidth cap.
class CostClock {
 public:
  /// Reserve `cost` of CPU starting no earlier than `now`; returns the
  /// instant the work completes (monotone across calls).
  SimTime reserve(SimTime now, Duration cost) {
    free_at_ = std::max(now, free_at_) + cost;
    return free_at_;
  }

  /// Instant the CPU last fell or next falls idle.
  SimTime free_at() const noexcept { return free_at_; }

 private:
  SimTime free_at_ = 0;
};

}  // namespace padico::core
