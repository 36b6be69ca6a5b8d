// CostClock: a serialized virtual CPU.
//
// The middleware personalities charge their per-message work to one
// (middleware/personality.hpp), and so do the AdOC adapter's encoder
// and decoder (adapters/adoc.hpp).  Costs are virtual nanoseconds and
// the clock is plain arithmetic over the Engine's now(), so charges
// are bit-identical across runs.
#pragma once

#include <algorithm>

#include "core/engine.hpp"
#include "core/time.hpp"

namespace padico::core {

/// Serialized virtual CPU: one personality's message processing runs
/// one message at a time, so back-to-back charges queue behind each
/// other — the mechanism that turns a per-byte marshal cost into a
/// bandwidth cap.
class CostClock {
 public:
  explicit CostClock(Engine& engine) : engine_(&engine) {}

  /// Reserve `cost` of CPU starting no earlier than now; returns the
  /// instant the work completes (monotone across calls).
  SimTime reserve(Duration cost) {
    const SimTime start = std::max(engine_->now(), free_at_);
    free_at_ = start + cost;
    return free_at_;
  }

  /// Instant the CPU next falls idle (now, if it already is).
  SimTime free_at() const noexcept { return free_at_; }

 private:
  Engine* engine_;
  SimTime free_at_ = 0;
};

}  // namespace padico::core
