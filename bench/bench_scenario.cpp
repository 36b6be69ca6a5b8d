// Scenario engine throughput: how many generated client sessions the
// virtual grid sustains, at three scales.
//
//   small — 256 nodes (8 clusters x 32), 20k bursty sessions;
//   san   — one 1024-node Myrinet-2000 cluster, 30k sessions of 4
//           requests, every frame through SanDriver -> Madeleine ->
//           MadIO (the shape of bench/e2e's san_rpc);
//   bulk  — 256 Ethernet-100 nodes (16 clusters x 16), 1,000 sessions
//           of 16 round trips of 256 B / 256 KiB (bench/e2e's wan_bulk
//           sub-run 0 at seed 2026, digest 0ec9071fae057fff): the
//           zero-copy path, where a reply's bytes reach the reading
//           link by reference;
//   large — 10,000 nodes (100 clusters x 100), 1M Poisson sessions.
//
// The large scale runs TWICE and the bench fails (exit 1) if the two
// digests differ: the CI bench job doubles as the large-topology
// replay gate.  Virtual-time rates (events/s, bytes/s, sessions/s of
// SIMULATED time) are deterministic, so the baseline check can be
// tight.  Host cost of the large run lands next to them: wall time and
// sessions per wall second (info — machine-dependent), and heap
// allocations per session, counted by this file's replacement of the
// global operator new, over-aligned forms included (deterministic for
// a given toolchain and seed, so it is max-gated).  The same counter
// prices building the large grid: allocations per node during the
// Scenario's construction (max-gated) and the bytes they request per
// node (info).  It also keeps the live heap, the usable size of every
// block `new` handed out and `delete` has not taken back, and its
// high-water mark over the large run, construction included: the peak
// heap (max-gated, the deterministic stand-in for peak RSS).  The san scale runs once and
// reports its allocations per session too: the SAN path's own
// host-work gate.  The bulk scale runs once and reports allocations,
// bytes requested per session and its peak heap: a host copy of the
// replies shows in all three (16 x 256 KiB per session).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace {

// Calls to the global operator new, which this file replaces below,
// and the bytes they requested: every allocation through `new`
// anywhere in the process.  The bench is single-threaded.
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;
// Live heap bytes through `new` and their high-water mark.
std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;

// Count a block malloc handed out for a request of `n` bytes.
void* count_block(void* p, std::size_t n) {
  if (p == nullptr) throw std::bad_alloc();
  ++g_allocs;
  g_alloc_bytes += n;
  g_live_bytes += malloc_usable_size(p);
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  return p;
}

void free_block(void* p) noexcept {
  if (p) g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  return count_block(std::malloc(n == 0 ? 1 : n), n);
}

void operator delete(void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }

// Over-aligned allocations (the engine's event-node chunks) count too.
void* operator new(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return count_block(std::aligned_alloc(a, (n + a - 1) / a * a), n);
}

void operator delete(void* p, std::align_val_t) noexcept { free_block(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  free_block(p);
}

namespace {

namespace sc = padico::scenario;

sc::ScenarioSpec small_scale() {
  sc::ScenarioSpec spec =
      sc::small_world(8, 32, 20'000, 2'000'000.0, 2026);
  spec.workload.burst_depth = 0.5;
  spec.workload.burst_period = padico::core::milliseconds(1);
  return spec;
}

sc::ScenarioSpec san_scale() {
  sc::ScenarioSpec spec;
  spec.name = "san";
  spec.seed = 2026;
  spec.clusters.assign(
      1, sc::ClusterSpec{1024, 64, padico::simnet::profiles::myrinet2000()});
  spec.workload.sessions = 30'000;
  spec.workload.rate_per_sec = 5'000'000.0;
  spec.workload.requests_per_session = 4;
  return spec;
}

sc::ScenarioSpec bulk_scale() {
  sc::ScenarioSpec spec;
  spec.name = "bulk";
  spec.seed = 2026;
  spec.clusters.assign(
      16, sc::ClusterSpec{16, 4, padico::simnet::profiles::ethernet100()});
  spec.workload.sessions = 1'000;
  spec.workload.rate_per_sec = 30.0;
  spec.workload.requests_per_session = 16;
  spec.workload.request_bytes = 256;
  spec.workload.reply_bytes = 256 * 1024;
  spec.workload.key_skew = 0.0;
  return spec;
}

sc::ScenarioSpec large_scale() {
  return sc::small_world(100, 100, 1'000'000, 5'000'000.0, 2026);
}

struct TimedReport {
  sc::Report report;
  /// Host seconds for construction plus run — machine-dependent,
  /// recorded as info/min-gated metrics (see BENCH_scenario.json)
  /// rather than band-gated ones.
  double wall_s = 0;
  double events_per_wall_sec = 0;
  /// Heap allocations during run() (construction excluded) per opened
  /// session, and the bytes they requested.
  double allocs_per_session = 0;
  double alloc_bytes_per_session = 0;
  /// Heap allocations, and the bytes they requested, during the
  /// Scenario's construction (grid build and server listens) per node.
  double setup_allocs_per_node = 0;
  double setup_bytes_per_node = 0;
  /// High-water mark of the live heap over construction plus run, in
  /// MB (10^6 bytes).
  double peak_heap_mb = 0;
};

TimedReport timed_run(const char* label, const sc::ScenarioSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  g_peak_bytes = g_live_bytes;
  const std::uint64_t setup_allocs0 = g_allocs;
  const std::uint64_t setup_bytes0 = g_alloc_bytes;
  sc::Scenario s(spec);
  const auto nodes = static_cast<double>(s.grid().size());
  const double setup_allocs =
      static_cast<double>(g_allocs - setup_allocs0) / nodes;
  const double setup_bytes =
      static_cast<double>(g_alloc_bytes - setup_bytes0) / nodes;
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t bytes0 = g_alloc_bytes;
  const sc::Report r = s.run();
  const std::uint64_t allocs = g_allocs - allocs0;
  const std::uint64_t bytes = g_alloc_bytes - bytes0;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto opened =
      static_cast<double>(std::max<std::uint64_t>(r.opened, 1));
  const double per_session = static_cast<double>(allocs) / opened;
  const double peak_mb = static_cast<double>(g_peak_bytes) / 1e6;
  std::printf(
      "%-8s %5zu nodes %9llu sessions  closed %llu  failed %llu  "
      "%10.3g ev/vs  %10.3g B/vs  %10.3g sess/vs  digest %s  "
      "[wall %.1f s, %.2f allocs/session, setup %.2f allocs %.0f B/node, "
      "peak heap %.2f MB]\n",
      label, s.grid().size(),
      static_cast<unsigned long long>(r.opened),
      static_cast<unsigned long long>(r.closed),
      static_cast<unsigned long long>(r.failed), r.events_per_vsec,
      r.bytes_per_vsec, r.sessions_per_vsec, r.digest.c_str(), wall,
      per_session, setup_allocs, setup_bytes, peak_mb);
  return TimedReport{
      r,
      wall,
      static_cast<double>(s.grid().engine().processed()) / wall,
      per_session,
      static_cast<double>(bytes) / opened,
      setup_allocs,
      setup_bytes,
      peak_mb};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "scenario");
  std::printf("# Scenario engine: generated sessions over the virtual "
              "grid (rates are per second of VIRTUAL time)\n");

  const TimedReport small = timed_run("small", small_scale());
  session.metric("small.events_per_vsec", "ev/s",
                 small.report.events_per_vsec);
  session.metric("small.bytes_per_vsec", "B/s", small.report.bytes_per_vsec);
  session.metric("small.sessions_per_vsec", "1/s",
                 small.report.sessions_per_vsec);

  const TimedReport san = timed_run("san", san_scale());
  session.metric("san.events_per_vsec", "ev/s", san.report.events_per_vsec);
  session.metric("san.sessions_per_vsec", "1/s",
                 san.report.sessions_per_vsec);
  session.metric("san.allocs_per_session", "1/session",
                 san.allocs_per_session);
  session.metric("san.peak_heap_mb", "MB", san.peak_heap_mb);

  const TimedReport bulk = timed_run("bulk", bulk_scale());
  session.metric("bulk.allocs_per_session", "1/session",
                 bulk.allocs_per_session);
  session.metric("bulk.alloc_bytes_per_session", "B/session",
                 bulk.alloc_bytes_per_session);
  session.metric("bulk.peak_heap_mb", "MB", bulk.peak_heap_mb);

  const TimedReport large = timed_run("large", large_scale());
  session.metric("large.events_per_vsec", "ev/s",
                 large.report.events_per_vsec);
  session.metric("large.bytes_per_vsec", "B/s", large.report.bytes_per_vsec);
  session.metric("large.sessions_per_vsec", "1/s",
                 large.report.sessions_per_vsec);

  const TimedReport replay = timed_run("replay", large_scale());
  if (replay.report.digest != large.report.digest) {
    std::fprintf(stderr,
                 "FAIL: large-scale digest not replayable (%s vs %s)\n",
                 large.report.digest.c_str(), replay.report.digest.c_str());
    return 1;
  }
  std::printf("# large-scale digest replayed bit-identically (%s)\n",
              large.report.digest.c_str());

  // Host cost at the 10k-node / 1M-session scale, from the faster of
  // the two identical large runs.  The baseline min-gates the event
  // rate at 1.5x the recorded pre-calendar-queue rate (see the
  // baseline's "notes"), so the engine overhaul's speedup can't
  // silently erode; the allocation count is max-gated.
  const TimedReport& best = large.wall_s <= replay.wall_s ? large : replay;
  std::printf("# large-scale wall: %.2f s, %.4g events/wall-second, "
              "%.4g sessions/wall-second\n",
              best.wall_s, best.events_per_wall_sec,
              static_cast<double>(best.report.opened) / best.wall_s);
  session.metric("large.events_per_wall_sec", "ev/s",
                 best.events_per_wall_sec);
  session.metric("large.wall_s", "s", best.wall_s);
  session.metric("large.sessions_per_wall_sec", "1/s",
                 static_cast<double>(best.report.opened) / best.wall_s);
  session.metric("large.allocs_per_session", "1/session",
                 large.allocs_per_session);
  session.metric("large.setup_allocs_per_node", "1/node",
                 large.setup_allocs_per_node);
  session.metric("large.setup_bytes_per_node", "B/node",
                 large.setup_bytes_per_node);
  session.metric("large.peak_heap_mb", "MB", large.peak_heap_mb);
  return 0;
}
