// EventQueue ordering invariants: the timing wheel must dispatch in
// exactly the old `std::map<(t, seq), fn>` order — strictly
// non-decreasing time, FIFO within an instant, past timestamps clamped
// to now — under every configuration (default width, the 1-tick
// degenerate ring, tiny rings whose wheel spans under a millisecond).
//
// The oracle is the seed's std::map queue (bench/map_oracle.hpp, shared
// with bench_engine), driven by the same seeded generator.  Plus a
// recorded-digest constant: the 1k-node scenario must reproduce the
// digest recorded before the queue swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "map_oracle.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace pc = padico::core;
namespace sc = padico::scenario;

namespace {

// ---------------------------------------------------------------------------
// Generator: a random schedule-churn program, identical per seed
// ---------------------------------------------------------------------------

struct Program {
  std::vector<std::uint32_t> order;  // event ids in dispatch order
  // Dispatches that followed the previous one by more than the default
  // wheel's reach: the ring and the wheel had drained and the event
  // came off the heap.
  std::uint32_t idle_gaps = 0;
};

/// Drive `eng` through `total` events: every dispatched event records
/// its id and schedules 1–2 children at random offsets — the same
/// instant, near future (inside any ring), a few ms ahead (the wheel
/// at the default width, the heap at tiny ones), 150–400 ms ahead
/// (beyond the default wheel: heap, then wheel, then ring), 1 ms grid
/// points up to 400 ms ahead (so pushes made from every level collide
/// on one tick), and the PAST (which must clamp).  The program runs in
/// epochs of 500 events.  The event that spends an epoch's budget
/// schedules the next epoch's 4 roots 150–400 ms past everything
/// scheduled so far; the rest of its epoch drains without children,
/// so the ring and the wheel empty out and the next event waits in
/// the heap — the idle gaps in which the queue jumps to the heap top.
/// All decisions come off one seeded Rng, so two engines with
/// identical dispatch order see identical programs; any ordering
/// divergence derails the comparison visibly.
template <typename EngineT>
Program run_program(EngineT& eng, std::uint32_t total, std::uint64_t seed) {
  constexpr std::uint32_t kEpochEvents = 500;
  constexpr pc::SimTime kMs = 1'000'000;
  // 1024 slots of the default 131072-tick block, plus one block.
  constexpr pc::SimTime kWheelReach = 1025 * 131072;
  Program prog;
  prog.order.reserve(total);
  pc::Rng rng(seed);
  std::uint32_t next_id = 0;
  std::uint32_t budget = total;
  std::uint32_t epoch = 0;
  std::uint32_t epoch_left = kEpochEvents;
  pc::SimTime horizon = 0;  // latest instant scheduled so far
  pc::SimTime last = 0;

  std::function<void(std::uint32_t, std::uint32_t)> fire;
  auto schedule = [&](pc::SimTime t, std::uint32_t ep) {
    --budget;
    horizon = std::max(horizon, t);
    const std::uint32_t id = next_id++;
    eng.schedule_at(t, [&fire, id, ep] { fire(id, ep); });
  };
  fire = [&](std::uint32_t id, std::uint32_t ep) {
    prog.order.push_back(id);
    const pc::SimTime now = eng.now();
    if (now - last > kWheelReach) ++prog.idle_gaps;
    last = now;
    if (ep != epoch) return;  // a spent epoch drains
    const int children = 1 + static_cast<int>(rng.uniform_int(0, 1));
    for (int c = 0; c < children && budget > 0 && epoch_left > 0; ++c) {
      --epoch_left;
      pc::SimTime t = now;
      switch (rng.uniform_int(0, 5)) {
        case 0:  // same instant (FIFO with everything queued at now)
          break;
        case 1:  // near future, inside any ring window
          t = now + 1 + rng.uniform_int(0, 4000);
          break;
        case 2:  // beyond the default 131072-tick ring
          t = now + 200'000 + rng.uniform_int(0, 2'000'000);
          break;
        case 3:  // beyond the default wheel's 134 ms
          t = now + 150 * kMs + rng.uniform_int(0, 250 * kMs);
          break;
        case 4:  // a 1 ms grid point up to 400 ms ahead
          t = (now + rng.uniform_int(0, 400 * kMs) + kMs - 1) / kMs * kMs;
          break;
        default:  // the past — must clamp to now
          t = now - std::min<pc::SimTime>(now, rng.uniform_int(1, 10'000));
          break;
      }
      schedule(t, ep);
    }
    if (epoch_left == 0 && budget > 0) {
      ++epoch;
      epoch_left = kEpochEvents;
      const pc::SimTime gap_end = horizon;
      for (int r = 0; r < 4 && budget > 0; ++r) {
        schedule(gap_end + 150 * kMs + rng.uniform_int(0, 250 * kMs), epoch);
      }
    }
  };

  // Seed the program with a spread of roots so several buckets, wheel
  // slots and the far heap are populated before the first dispatch.
  for (int r = 0; r < 64 && budget > 0; ++r) {
    schedule(rng.uniform_int(0, 500 * kMs), 0);
  }
  eng.run_until_idle();
  return prog;
}

Program run_config(const pc::QueueConfig& cfg, std::uint32_t total,
                   std::uint64_t seed) {
  pc::Engine eng(cfg);
  return run_program(eng, total, seed);
}

/// Pop the queue's next event and run its closure in place.
bool pop_and_run(pc::EventQueue& q, pc::SimTime& t) {
  const std::uint32_t node = q.pop(t);
  if (node == pc::EventQueue::kNone) return false;
  q.fn(node)();
  q.release(node);
  return true;
}

}  // namespace

TEST(EventQueueOrdering, HundredThousandRandomEventsMatchMapSemantics) {
  constexpr std::uint32_t kTotal = 100'000;
  constexpr std::uint64_t kSeed = 0x0bd5'ca1e'0000'0001ull;

  bench::MapOracle oracle;
  const Program expect = run_program(oracle, kTotal, kSeed);
  ASSERT_EQ(expect.order.size(), kTotal);
  // The program really leaves the queue idle between far events.
  EXPECT_GT(expect.idle_gaps, 100u);

  // Default width, the 1-tick degenerate ring (a 1 us wheel), a tiny
  // ring (64 us wheel: constant heap-to-wheel migration) and a 1 ms
  // wheel.
  for (const std::uint32_t width :
       {pc::QueueConfig{}.ring_ticks, 1u, 64u, 1024u}) {
    pc::QueueConfig cfg;
    cfg.ring_ticks = width;
    EXPECT_EQ(run_config(cfg, kTotal, kSeed).order, expect.order)
        << "ring_ticks " << width;
  }
}

TEST(EventQueueOrdering, QueueShapeAccountingStaysConsistent) {
  pc::QueueConfig cfg;
  cfg.ring_ticks = 1024;  // a block is 1024 ticks; the wheel reaches 1 ms
  pc::EventQueue q(cfg);
  std::vector<int> ran;
  // A ring entry, two wheel entries for one tick, and a heap entry.
  q.push(10, 0, [&ran] { ran.push_back(0); });
  q.push(5'000, 1, [&ran] { ran.push_back(1); });
  q.push(5'000, 2, [&ran] { ran.push_back(2); });
  q.push(2'000'000, 3, [&ran] { ran.push_back(3); });
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.ring_size(), 1u);
  EXPECT_EQ(q.overflow_size(), 3u);  // wheel plus heap
  EXPECT_EQ(q.occupied_buckets(), 1u);

  pc::SimTime t = 0;
  ASSERT_TRUE(pop_and_run(q, t));
  EXPECT_EQ(t, 10u);
  // The ring drained: the next pop cascades 5'000's slot into the ring.
  ASSERT_TRUE(pop_and_run(q, t));
  EXPECT_EQ(t, 5'000u);
  EXPECT_EQ(q.ring_size(), 1u);
  EXPECT_EQ(q.overflow_size(), 1u);
  EXPECT_EQ(q.occupied_buckets(), 1u);
  ASSERT_TRUE(pop_and_run(q, t));
  EXPECT_EQ(t, 5'000u);
  // Ring and wheel are empty: the queue jumps to the heap top.
  ASSERT_TRUE(pop_and_run(q, t));
  EXPECT_EQ(t, 2'000'000u);
  EXPECT_FALSE(pop_and_run(q, t));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.occupied_buckets(), 0u);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueOrdering, OneTickFromEveryLevelPopsInPushOrder) {
  // One tick reached from the heap, the wheel and the ring in turn:
  // each entry must pop in push order, whatever level it came through.
  pc::QueueConfig cfg;
  cfg.ring_ticks = 1024;
  pc::Engine e(cfg);
  constexpr pc::SimTime kT = 5'000'000;  // beyond the 1 ms wheel at 0
  std::vector<int> order;
  e.schedule_at(kT, [&order] { order.push_back(0); });  // heap
  e.schedule_at(kT - 900'000, [&] {
    e.schedule_at(kT, [&order] { order.push_back(1); });  // wheel
  });
  e.schedule_at(kT - 100, [&] {
    e.schedule_at(kT, [&order] { order.push_back(2); });  // ring
  });
  e.schedule_at(kT, [&order] { order.push_back(3); });  // heap
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
  EXPECT_EQ(e.now(), kT);
}

// ---------------------------------------------------------------------------
// Recorded digest: the queue swap may not move a single event
// ---------------------------------------------------------------------------

namespace {

/// 32x32 = 1024 nodes, 6k bursty sessions, all five churn kinds.  The
/// constants below were recorded on the std::map engine BEFORE the
/// calendar-queue refactor; every ring width must still reproduce them
/// exactly.
sc::ScenarioSpec thousand_node_spec() {
  sc::ScenarioSpec spec = sc::small_world(32, 32, 6'000, 2'000'000.0, 17);
  spec.workload.burst_depth = 0.5;
  spec.workload.burst_period = pc::milliseconds(1);
  spec.churn.push_back({sc::ChurnKind::node_join, pc::microseconds(500),
                        1, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::node_leave, pc::microseconds(900),
                        2, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::link_flap, pc::microseconds(1300),
                        3, pc::microseconds(400), 0.0});
  spec.churn.push_back({sc::ChurnKind::loss_burst, pc::microseconds(1700),
                        4, pc::microseconds(400), 0.5});
  spec.churn.push_back({sc::ChurnKind::wan_brownout, pc::microseconds(2100),
                        0, pc::milliseconds(1), 0.1});
  return spec;
}

constexpr char kRecordedDigest[] = "1cee436ecc42dee3";
constexpr std::uint64_t kRecordedEvents = 90'928;
constexpr std::uint64_t kRecordedDuration = 54'906'210;

sc::Report run_thousand(const pc::QueueConfig& cfg) {
  pc::ScopedQueueConfig scoped(cfg);
  sc::Scenario s(thousand_node_spec());
  return s.run();
}

}  // namespace

TEST(EventQueueDigest, ThousandNodeScenarioMatchesPreRefactorRecording) {
  const sc::Report r = run_thousand(pc::QueueConfig{});
  EXPECT_EQ(r.digest, kRecordedDigest);
  EXPECT_EQ(r.events, kRecordedEvents);
  EXPECT_EQ(r.duration, kRecordedDuration);
}

TEST(EventQueueDigest, DegenerateAndTinyRingsReproduceTheSameRecording) {
  for (const std::uint32_t width : {1u, 64u, 1024u}) {
    pc::QueueConfig cfg;
    cfg.ring_ticks = width;
    const sc::Report r = run_thousand(cfg);
    EXPECT_EQ(r.digest, kRecordedDigest) << "ring_ticks " << width;
    EXPECT_EQ(r.events, kRecordedEvents) << "ring_ticks " << width;
    EXPECT_EQ(r.duration, kRecordedDuration) << "ring_ticks " << width;
  }
}
