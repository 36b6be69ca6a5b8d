// MapOracle: the seed engine's event queue, kept outside the library
// as a reference.
//
// Pending events live in a `std::map<(time, seq), std::function>` —
// one tree node per event, plus the std::function's own allocation
// when a capture outgrows its small buffer.  Pop order is strictly
// increasing (time, seq): non-decreasing time, FIFO within an instant,
// past timestamps clamped to now.  `core::Engine`'s calendar queue must
// reproduce that order exactly.
//
// Two users share it: `test_event_queue` drives the same seeded
// program through the oracle and through `core::Engine` and compares
// the dispatch order, and `bench_engine` races the two on the dispatch
// and burst legs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "core/time.hpp"

namespace bench {

class MapOracle {
 public:
  padico::core::SimTime now() const noexcept { return now_; }
  std::uint64_t processed() const noexcept { return processed_; }

  void schedule_at(padico::core::SimTime t, std::function<void()> fn) {
    if (t < now_) t = now_;
    q_.emplace(std::pair{t, seq_++}, std::move(fn));
  }
  void schedule_after(padico::core::Duration d, std::function<void()> fn) {
    schedule_at(now_ + d, std::move(fn));
  }

  void run_until_idle() {
    while (!q_.empty()) {
      auto node = q_.extract(q_.begin());
      now_ = node.key().first;
      ++processed_;
      node.mapped()();
    }
  }

 private:
  std::map<std::pair<padico::core::SimTime, std::uint64_t>,
           std::function<void()>>
      q_;
  padico::core::SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace bench
