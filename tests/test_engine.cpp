#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pc = padico::core;

TEST(Engine, RunsEventsInTimeOrder) {
  pc::Engine e;
  std::vector<int> order;
  e.schedule_at(300, [&] { order.push_back(3); });
  e.schedule_at(100, [&] { order.push_back(1); });
  e.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(e.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, FifoWithinSameInstant) {
  pc::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, NowVisibleInsideCallback) {
  pc::Engine e;
  pc::SimTime seen = 0;
  e.schedule_at(777, [&] { seen = e.now(); });
  e.run_until_idle();
  EXPECT_EQ(seen, 777u);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  pc::Engine e;
  std::vector<pc::SimTime> times;
  std::function<void()> tick = [&] {
    times.push_back(e.now());
    if (times.size() < 4) e.schedule_after(10, tick);
  };
  e.schedule_at(0, tick);
  e.run_until_idle();
  EXPECT_EQ(times, (std::vector<pc::SimTime>{0, 10, 20, 30}));
}

TEST(Engine, PastTimestampClampsToNow) {
  pc::Engine e;
  pc::SimTime seen = 1234;
  e.schedule_at(100, [&] {
    e.schedule_at(5, [&] { seen = e.now(); });  // 5 < now()=100
  });
  e.run_until_idle();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, RunWhilePendingStopsOnPredicate) {
  pc::Engine e;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(static_cast<pc::SimTime>(i), [&] { ++fired; });
  }
  const std::size_t n = e.run_while_pending([&] { return fired >= 4; });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(e.pending());
  EXPECT_EQ(e.pending_count(), 6u);
}

TEST(Engine, RunWhilePendingStopsOnExhaustion) {
  pc::Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(static_cast<pc::SimTime>(i), [&] { ++fired; });
  }
  // Predicate never satisfied: the loop must exit on queue exhaustion.
  const std::size_t n = e.run_while_pending([] { return false; });
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_FALSE(e.pending());
}

TEST(Engine, DeterministicTraceAcrossRuns) {
  auto run = [] {
    pc::Engine e;
    std::vector<std::pair<pc::SimTime, int>> trace;
    for (int i = 0; i < 32; ++i) {
      // Deliberately colliding timestamps exercise the FIFO tiebreak.
      e.schedule_at(static_cast<pc::SimTime>((i * 7) % 5),
                    [&trace, &e, i] { trace.emplace_back(e.now(), i); });
    }
    e.run_until_idle();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, QueueGaugesTrackShape) {
  pc::QueueConfig cfg;
  cfg.ring_ticks = 1024;
  pc::Engine e(cfg);
  e.schedule_at(10, [] {});     // ring
  e.schedule_at(10, [] {});     // same bucket
  e.schedule_at(50'000, [] {});  // a later block: the coarse wheel

  EXPECT_EQ(e.pending_count(), 3u);
  EXPECT_EQ(e.obs().gauge("engine.pending").value(), 3);
  e.publish_queue_gauges();
  EXPECT_EQ(e.obs().gauge("engine.ring").value(), 2);
  EXPECT_EQ(e.obs().gauge("engine.overflow").value(), 1);
  EXPECT_EQ(e.obs().gauge("engine.buckets").value(), 1);

  e.run_until_idle();
  e.publish_queue_gauges();
  EXPECT_EQ(e.obs().gauge("engine.ring").value(), 0);
  EXPECT_EQ(e.obs().gauge("engine.overflow").value(), 0);
  EXPECT_EQ(e.obs().gauge("engine.buckets").value(), 0);
}

TEST(Engine, LargeClosuresTakeTheHeapFallback) {
  // InplaceFn inlines up to 48 bytes; anything bigger must still work
  // (one heap allocation, like std::function's big-capture path).
  pc::Engine e;
  std::array<std::uint64_t, 16> big{};  // 128 bytes of capture
  big[0] = 7;
  big[15] = 9;
  std::uint64_t sum = 0;
  e.schedule_at(1, [big, &sum] { sum = big[0] + big[15]; });
  e.run_until_idle();
  EXPECT_EQ(sum, 16u);
}

TEST(Engine, LvalueCallablesAreCopiedIn) {
  pc::Engine e;
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  e.schedule_at(1, fn);  // copy
  e.schedule_at(2, fn);  // copy again; fn stays usable
  e.run_until_idle();
  fn();
  EXPECT_EQ(hits, 3);
}

// ---------------------------------------------------------------------------
// Closures are built and run in their queue node
// ---------------------------------------------------------------------------

namespace {

/// Counts its own moves; a closure the queue relocated shows them.
struct MoveCounter {
  int* moves;
  int* moves_at_run;
  explicit MoveCounter(int* m, int* r) : moves(m), moves_at_run(r) {}
  MoveCounter(MoveCounter&& o) noexcept
      : moves(o.moves), moves_at_run(o.moves_at_run) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  void operator()() const { *moves_at_run = *moves; }
};

/// Counts destructions of live (not moved-from) copies.
struct DestroyCounter {
  int* destroyed;
  bool live = true;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& o) noexcept : destroyed(o.destroyed) {
    o.live = false;
  }
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (live) ++*destroyed;
  }
  void operator()() const {}
};

}  // namespace

TEST(EngineLifetime, ClosureIsBuiltInItsNodeAndNeverMoved) {
  pc::Engine e;
  int moves = 0, moves_at_run = -1;
  // A temporary is moved once, into its node.
  e.schedule_at(5, MoveCounter(&moves, &moves_at_run));
  e.run_until_idle();
  EXPECT_EQ(moves_at_run, 1);

  // An EventFn is moved in once too (after the one move that built it).
  moves = 0;
  moves_at_run = -1;
  pc::EventFn fn = MoveCounter(&moves, &moves_at_run);
  e.schedule_after(5, std::move(fn));
  e.run_until_idle();
  EXPECT_EQ(moves_at_run, 2);
}

TEST(EngineLifetime, RunningClosureMaySpillIntoNewChunksAndReadItsCaptures) {
  // The closure schedules more events than one pool chunk holds while
  // it runs, then reads its captures: its node must not have moved
  // (ASan flags the read otherwise).
  pc::Engine e;
  std::uint64_t seen = 0;
  int children = 0;
  const std::array<std::uint64_t, 4> captured{1, 2, 3, 4};
  e.schedule_at(1, [&e, &seen, &children, captured] {
    for (int i = 0; i < 3000; ++i) {
      e.schedule_after(static_cast<pc::Duration>(i % 7),
                       [&children] { ++children; });
    }
    seen = captured[0] + captured[1] + captured[2] + captured[3];
  });
  e.run_until_idle();
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(children, 3000);
}

TEST(EngineLifetime, ThrowingClosureLeavesTheEngineUsableAndFreesItsNode) {
  pc::Engine e;
  const void* thrown_at = nullptr;
  const void* next_at = nullptr;
  struct Thrower {
    const void** at;
    void operator()() const {
      *at = this;
      throw std::runtime_error("boom");
    }
  };
  struct Probe {
    const void** at;
    void operator()() const { *at = this; }
  };
  e.schedule_at(10, Thrower{&thrown_at});
  EXPECT_THROW(e.step(), std::runtime_error);
  EXPECT_EQ(e.now(), 10u);
  EXPECT_FALSE(e.pending());
  // The thrower's node went back to the pool: the next closure is built
  // in that very node, and runs there.
  e.schedule_at(20, Probe{&next_at});
  EXPECT_TRUE(e.step());
  EXPECT_NE(thrown_at, nullptr);
  EXPECT_EQ(next_at, thrown_at);
  EXPECT_EQ(e.now(), 20u);
}

TEST(EngineLifetime, DestroyingTheEngineDestroysEachPendingClosureOnce) {
  int destroyed = 0;
  {
    pc::QueueConfig cfg;
    cfg.ring_ticks = 64;  // ring, wheel and heap entries alike
    pc::Engine e(cfg);
    for (int i = 0; i < 600; ++i) {
      e.schedule_at(static_cast<pc::SimTime>(i) * 997,
                    DestroyCounter(&destroyed));
    }
    e.schedule_at(0, [] {});
    ASSERT_TRUE(e.step());  // leaves a free node beside pending ones
    EXPECT_EQ(destroyed, 1);  // the first counter ran and was destroyed
    EXPECT_EQ(e.pending_count(), 600u);
  }
  EXPECT_EQ(destroyed, 600);
}

TEST(EngineLifetime, ParkedClosureIsBuiltOnceAndRunsInPlace) {
  pc::Engine e;
  int moves = 0, moves_at_run = -1;
  const std::uint32_t h = e.park(MoveCounter(&moves, &moves_at_run));
  // Parked, not scheduled: no queue level holds it.
  EXPECT_FALSE(e.pending());
  EXPECT_EQ(e.pending_count(), 0u);
  EXPECT_EQ(e.run_until_idle(), 0u);
  e.run_parked(h);
  EXPECT_EQ(moves_at_run, 1);  // built in its node, never moved again
  EXPECT_EQ(e.processed(), 0u);  // running it is not an event

  // The node went back to the pool: the next closure reuses it.
  const void* first_at = nullptr;
  const void* second_at = nullptr;
  struct Probe {
    const void** at;
    void operator()() const { *at = this; }
  };
  const std::uint32_t a = e.park(Probe{&first_at});
  e.run_parked(a);
  const std::uint32_t b = e.park(Probe{&second_at});
  EXPECT_EQ(b, a);
  e.run_parked(b);
  EXPECT_EQ(second_at, first_at);
}

TEST(EngineLifetime, ThrowingParkedClosureFreesItsNode) {
  pc::Engine e;
  struct Thrower {
    void operator()() const { throw std::runtime_error("boom"); }
  };
  const std::uint32_t h = e.park(Thrower{});
  EXPECT_THROW(e.run_parked(h), std::runtime_error);
  int ran = 0;
  const std::uint32_t next = e.park([&ran] { ++ran; });
  EXPECT_EQ(next, h);  // the thrower's node was freed
  e.run_parked(next);
  EXPECT_EQ(ran, 1);
}

TEST(EngineLifetime, DroppedParkedClosureDiesUnrun) {
  int destroyed = 0;
  pc::Engine e;
  const std::uint32_t h = e.park(DestroyCounter(&destroyed));
  EXPECT_EQ(destroyed, 0);
  e.drop_parked(h);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(e.pending_count(), 0u);
}
