// padico::scenario — spec validation, seeded arrival statistics,
// session lifecycle accounting, churn edge cases, and the grid/simnet
// live-mutation hooks the engine is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/result.hpp"
#include "grid/grid.hpp"
#include "obs/category.hpp"
#include "obs/registry.hpp"
#include "scenario/arrival.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "simnet/network.hpp"
#include "vlink/link.hpp"

namespace sc = padico::scenario;
namespace core = padico::core;
namespace gr = padico::grid;
namespace sn = padico::simnet;
namespace obs = padico::obs;

namespace {

sc::ScenarioSpec tiny_spec() {
  return sc::small_world(/*clusters=*/2, /*nodes_per_cluster=*/4,
                         /*sessions=*/200, /*rate_per_sec=*/100'000.0,
                         /*seed=*/42);
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------------

TEST(ScenarioSpec, EmptyClustersRejected) {
  sc::ScenarioSpec spec;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ServerCountMustFitCluster) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.clusters[1].servers = spec.clusters[1].nodes + 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.clusters[1].servers = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, WorkloadFieldRanges) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.workload.rate_per_sec = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.workload.burst_depth = 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.workload.gap_min = core::milliseconds(1);
  spec.workload.gap_max = core::microseconds(1);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.workload.pareto_alpha = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.workload.keys = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.workload.request_bytes = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ChurnFieldRanges) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.churn.push_back({sc::ChurnKind::node_leave, core::milliseconds(1),
                        /*cluster=*/99, 0, 0.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.churn.clear();
  spec.churn.push_back({sc::ChurnKind::link_flap, core::milliseconds(1), 0,
                        /*duration=*/0, 0.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.churn.clear();
  spec.churn.push_back({sc::ChurnKind::loss_burst, core::milliseconds(1), 0,
                        core::milliseconds(1), /*magnitude=*/1.5});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.churn.clear();
  spec.churn.push_back({sc::ChurnKind::wan_brownout, core::milliseconds(1), 0,
                        core::milliseconds(1), /*magnitude=*/0.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ValidateMutatesNothing) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.workload.rate_per_sec = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // Correcting the one bad field makes the same object valid.
  spec.workload.rate_per_sec = 1000.0;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpec, ErrorNamesTheField) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.workload.keys = 0;
  try {
    spec.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("keys"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Fixed-point kernels
// ---------------------------------------------------------------------------

TEST(Fixmath, Log2ExactOnPowersOfTwo) {
  EXPECT_EQ(sc::fixmath::log2_q32(1), 0u);
  EXPECT_EQ(sc::fixmath::log2_q32(1ull << 20), 20ull << 32);
  EXPECT_EQ(sc::fixmath::log2_q32(1ull << 63), 63ull << 32);
}

TEST(Fixmath, Log2MatchesLibm) {
  for (const std::uint64_t v :
       {3ull, 10ull, 1000ull, 123456789ull, 0xdeadbeefcafeull}) {
    const double got =
        static_cast<double>(sc::fixmath::log2_q32(v)) / 4294967296.0;
    EXPECT_NEAR(got, std::log2(static_cast<double>(v)), 1e-8) << v;
  }
}

TEST(Fixmath, Exp2AndPow2NegMatchLibm) {
  EXPECT_EQ(sc::fixmath::exp2_frac_q63(0), 1ull << 63);
  const double half =
      static_cast<double>(sc::fixmath::exp2_frac_q63(1ull << 31)) /
      9223372036854775808.0;
  EXPECT_NEAR(half, std::sqrt(2.0), 1e-9);
  // Exact on integer exponents; close to libm on fractional ones.
  EXPECT_EQ(sc::fixmath::pow2_neg_q32(1ull << 32), 1ull << 31);
  EXPECT_EQ(sc::fixmath::pow2_neg_q32(40ull << 32), 0u);
  const double got =
      static_cast<double>(sc::fixmath::pow2_neg_q32(0x180000000ull)) /
      4294967296.0;
  EXPECT_NEAR(got, std::pow(2.0, -1.5), 1e-8);
}

// ---------------------------------------------------------------------------
// Arrival statistics (all seeded; bounds are deterministic, not flaky)
// ---------------------------------------------------------------------------

TEST(Arrival, PoissonMeanGapInTolerance) {
  sc::WorkloadSpec w;
  w.rate_per_sec = 1'000'000.0;  // mean gap 1000 ns
  sc::ArrivalProcess p(w, 7);
  const int n = 20'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(p.next_gap());
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1000.0, 50.0);  // +-5%; std error is ~0.7%
}

TEST(Arrival, PoissonIsReplayableFromSeed) {
  sc::WorkloadSpec w;
  sc::ArrivalProcess a(w, 123), b(w, 123), c(w, 124);
  bool any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const core::Duration ga = a.next_gap();
    EXPECT_EQ(ga, b.next_gap());
    any_diff = any_diff || ga != c.next_gap();
  }
  EXPECT_TRUE(any_diff);  // a different seed is a different stream
}

TEST(Arrival, InhomogeneousPoissonIsBurstier) {
  // Index of dispersion of counts in windows of period/8: ~1 for a
  // homogeneous process, well above 1 once the intensity swings +-90%.
  const auto dispersion = [](double depth) {
    sc::WorkloadSpec w;
    w.rate_per_sec = 1'000'000.0;
    w.burst_depth = depth;
    w.burst_period = core::milliseconds(1);
    sc::ArrivalProcess p(w, 99);
    const core::Duration window = w.burst_period / 8;
    std::vector<double> counts;
    core::SimTime t = 0;
    core::SimTime edge = window;
    double cur = 0;
    for (int i = 0; i < 50'000; ++i) {
      t += p.next_gap();
      while (t >= edge) {
        counts.push_back(cur);
        cur = 0;
        edge += window;
      }
      cur += 1;
    }
    double mean = 0;
    for (double c : counts) mean += c;
    mean /= static_cast<double>(counts.size());
    double var = 0;
    for (double c : counts) var += (c - mean) * (c - mean);
    var /= static_cast<double>(counts.size());
    return var / mean;
  };
  EXPECT_LT(dispersion(0.0), 1.3);
  EXPECT_GT(dispersion(0.9), 2.0);
}

TEST(Arrival, BoundedParetoStaysInSupportAndIsHeavyTailed) {
  sc::WorkloadSpec w;
  w.arrival = sc::Arrival::pareto;
  w.pareto_alpha = 1.1;
  w.gap_min = core::microseconds(1);
  w.gap_max = core::seconds(1);
  sc::ArrivalProcess p(w, 5);
  std::vector<core::Duration> gaps(20'000);
  for (auto& g : gaps) {
    g = p.next_gap();
    ASSERT_GE(g, w.gap_min);
    ASSERT_LE(g, w.gap_max);
  }
  std::vector<core::Duration> sorted = gaps;
  std::sort(sorted.begin(), sorted.end());
  const core::Duration median = sorted[sorted.size() / 2];
  // Heavy tail: the largest draw dwarfs the median by orders of
  // magnitude (alpha close to 1 puts most mass in rare huge gaps).
  EXPECT_GT(sorted.back(), 1000 * median);
  EXPECT_LT(median, 10 * w.gap_min);
}

TEST(Arrival, ZipfSkewConcentratesOnHotKeys) {
  core::Rng rng(11);
  sc::ZipfPicker zipf(1024, 0.99);
  std::vector<std::uint32_t> hits(1024, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t k = zipf.pick(rng);
    ASSERT_LT(k, 1024u);
    ++hits[k];
  }
  const double uniform_share = static_cast<double>(n) / 1024.0;
  EXPECT_GT(hits[0], 20 * uniform_share);  // key 0 is hot
  EXPECT_GT(hits[0], hits[1]);             // and rank-ordered
  EXPECT_GT(hits[1], hits[100]);

  core::Rng rng2(11);
  sc::ZipfPicker flat(1024, 0.0);
  std::vector<std::uint32_t> fhits(1024, 0);
  for (int i = 0; i < n; ++i) ++fhits[flat.pick(rng2)];
  EXPECT_LT(*std::max_element(fhits.begin(), fhits.end()),
            2 * uniform_share);  // skew 0 is uniform
}

// ---------------------------------------------------------------------------
// Session lifecycle accounting
// ---------------------------------------------------------------------------

TEST(Scenario, AllSessionsCompleteOnAQuietGrid) {
  sc::Scenario s(tiny_spec());
  const sc::Report r = s.run();
  EXPECT_EQ(r.opened, 200u);
  EXPECT_EQ(r.closed, 200u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.opened, r.closed + r.failed);
  // VIO flavor: zero envelope, so payload totals are exact.
  const sc::WorkloadSpec& w = s.spec().workload;
  EXPECT_EQ(r.payload_tx_bytes,
            200ull * w.requests_per_session * w.request_bytes);
  EXPECT_EQ(r.payload_rx_bytes,
            200ull * w.requests_per_session * w.reply_bytes);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.duration, 0u);
  EXPECT_GT(r.events_per_vsec, 0.0);
  EXPECT_GT(r.bytes_per_vsec, 0.0);
}

TEST(Scenario, MultiRequestSessionsAccountEveryRoundTrip) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.workload.sessions = 50;
  spec.workload.requests_per_session = 7;
  sc::Scenario s(std::move(spec));
  const sc::Report r = s.run();
  EXPECT_EQ(r.closed, 50u);
  EXPECT_EQ(r.payload_tx_bytes, 50ull * 7 * s.spec().workload.request_bytes);
  EXPECT_EQ(r.payload_rx_bytes, 50ull * 7 * s.spec().workload.reply_bytes);
}

TEST(Scenario, ZeroSessionsIsAValidRun) {
  sc::ScenarioSpec spec = tiny_spec();
  spec.workload.sessions = 0;
  sc::Scenario s(std::move(spec));
  const sc::Report r = s.run();
  EXPECT_EQ(r.opened, 0u);
  EXPECT_EQ(r.closed + r.failed, 0u);
  EXPECT_EQ(r.digest.size(), 16u);
}

TEST(Scenario, RunIsSingleShot) {
  sc::Scenario s(tiny_spec());
  (void)s.run();
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(Scenario, ReportCarriesObsRates) {
  sc::Scenario s(tiny_spec());
  const sc::Report r = s.run();
  EXPECT_NE(r.registry.find("rate scenario.sessions"), std::string::npos);
  EXPECT_NE(r.registry.find("rate scenario.bytes"), std::string::npos);
  EXPECT_NE(r.registry.find("rate scenario.events"), std::string::npos);
}

TEST(Scenario, FlavorsChangeCostAndWireFootprint) {
  sc::ScenarioSpec vio = tiny_spec();
  sc::ScenarioSpec soap = tiny_spec();
  soap.workload.flavor = sc::Flavor::soap;
  sc::Scenario a(std::move(vio)), b(std::move(soap));
  const sc::Report ra = a.run();
  const sc::Report rb = b.run();
  EXPECT_NE(ra.digest, rb.digest);
  // SOAP pays an envelope on every message and CPU on every end.
  EXPECT_GT(rb.payload_tx_bytes, ra.payload_tx_bytes);
  EXPECT_GT(rb.duration, ra.duration);
  EXPECT_EQ(rb.opened, rb.closed + rb.failed);
}

// ---------------------------------------------------------------------------
// Determinism / replay
// ---------------------------------------------------------------------------

TEST(Scenario, DigestIsBitIdenticalAcrossRuns) {
  sc::Scenario a(tiny_spec());
  sc::Scenario b(tiny_spec());
  const sc::Report ra = a.run();
  const sc::Report rb = b.run();
  EXPECT_EQ(ra.digest, rb.digest);
  EXPECT_EQ(ra.opened, rb.opened);
  EXPECT_EQ(ra.closed, rb.closed);
  EXPECT_EQ(ra.duration, rb.duration);
  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.registry, rb.registry);

  sc::ScenarioSpec other = tiny_spec();
  other.seed = 43;
  sc::Scenario c(std::move(other));
  EXPECT_NE(c.run().digest, ra.digest);
}

TEST(Scenario, TracingDoesNotPerturbTheDigest) {
  sc::Scenario plain(tiny_spec());
  const sc::Report rp = plain.run();

  sc::Scenario traced(tiny_spec());
  traced.grid().engine().tracer().enable(obs::kAllCats);
  const sc::Report rt = traced.run();
  EXPECT_EQ(rp.digest, rt.digest);
  EXPECT_GT(traced.grid().engine().tracer().size(), 0u);
}

// ---------------------------------------------------------------------------
// Recorded constants: the session-open path may only move wall-clock
// time.  Digest, event count and duration were recorded before the
// fast-lane reference paths (uncached chooser, fast-open intent table,
// coroutine client) were deleted; the one remaining path must still
// reproduce them.
// ---------------------------------------------------------------------------

namespace {

/// tiny_spec plus multi-request sessions and one event of every churn
/// kind, so selection, live mutation and every fault path run
/// mid-workload.
sc::ScenarioSpec churny_spec() {
  sc::ScenarioSpec spec = sc::small_world(2, 4, 400, 200'000.0, 7);
  spec.workload.requests_per_session = 3;
  spec.churn.push_back({sc::ChurnKind::node_join, core::microseconds(400),
                        /*cluster=*/1, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::node_leave, core::microseconds(800),
                        /*cluster=*/0, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::link_flap, core::microseconds(1200),
                        /*cluster=*/1, core::microseconds(300), 0.0});
  spec.churn.push_back({sc::ChurnKind::loss_burst, core::microseconds(1600),
                        /*cluster=*/0, core::microseconds(300), 0.5});
  spec.churn.push_back({sc::ChurnKind::wan_brownout, core::microseconds(2000),
                        0, core::milliseconds(1), 0.1});
  return spec;
}

}  // namespace

TEST(ScenarioRecorded, TinySpecMatchesTheRecording) {
  sc::Scenario s(tiny_spec());
  const sc::Report r = s.run();
  EXPECT_EQ(r.digest, "b5f9f6c6dc54b070");
  EXPECT_EQ(r.events, 3'005u);
  EXPECT_EQ(r.duration, 33'900'675u);
}

TEST(ScenarioRecorded, ChurnySpecMatchesTheRecording) {
  // Equivalence proof for the churn paths: all five kinds change what
  // the selector answers mid-run (it ranks the live topology on every
  // call), and node_leave kills sessions mid-flight.  Reworking any of
  // those paths must leave these constants where they are.
  sc::Scenario s(churny_spec());
  const sc::Report r = s.run();
  EXPECT_EQ(r.digest, "84ca2181b7014d64");
  EXPECT_EQ(r.events, 8'901u);
  EXPECT_EQ(r.duration, 67'864'948u);
  EXPECT_EQ(r.churn_applied, 5u);
  EXPECT_EQ(r.closed, 304u);
  EXPECT_EQ(r.failed, 96u);
}

// ---------------------------------------------------------------------------
// Churn edge cases
// ---------------------------------------------------------------------------

TEST(Scenario, NodeLeaveMidTransferFailsOnlyItsSessions) {
  sc::ScenarioSpec spec = sc::small_world(1, 3, 600, 200'000.0, 9);
  spec.workload.requests_per_session = 40;  // sessions span the removal
  spec.churn.push_back({sc::ChurnKind::node_leave, core::milliseconds(1),
                        /*cluster=*/0, 0, 0.0});
  sc::Scenario s(std::move(spec));
  const std::size_t clients_before = s.client_count();
  const sc::Report r = s.run();
  EXPECT_EQ(s.client_count(), clients_before - 1);
  EXPECT_EQ(r.churn_applied, 1u);
  EXPECT_GT(r.failed, 0u);  // in-flight sessions on the victim hang
  EXPECT_GT(r.closed, 0u);  // the surviving client keeps completing
  EXPECT_EQ(r.opened, r.closed + r.failed);
}

TEST(Scenario, NodeJoinGrowsTheClientPool) {
  sc::ScenarioSpec spec = sc::small_world(2, 4, 400, 100'000.0, 21);
  spec.churn.push_back({sc::ChurnKind::node_join, core::microseconds(500),
                        /*cluster=*/1, 0, 0.0});
  sc::Scenario s(std::move(spec));
  const std::size_t before = s.client_count();
  const std::size_t grid_before = s.grid().size();
  const sc::Report r = s.run();
  EXPECT_EQ(s.client_count(), before + 1);
  EXPECT_EQ(s.grid().size(), grid_before + 1);
  EXPECT_TRUE(s.grid().alive(static_cast<core::NodeId>(grid_before)));
  EXPECT_EQ(r.churn_applied, 1u);
  EXPECT_EQ(r.opened, r.closed + r.failed);
  EXPECT_EQ(r.failed, 0u);  // a join disturbs nobody
}

TEST(Scenario, LinkFlapDuringEstablishmentIsAccountedFailed) {
  sc::ScenarioSpec spec = sc::small_world(1, 4, 2000, 1'000'000.0, 33);
  // The cluster link goes dark in the middle of the arrival ramp.
  spec.churn.push_back({sc::ChurnKind::link_flap, core::microseconds(500), 0,
                        core::milliseconds(1), 0.0});
  sc::Scenario s(std::move(spec));
  const sc::Report r = s.run();
  EXPECT_EQ(r.churn_applied, 1u);
  EXPECT_GT(r.failed, 0u);  // connects during the flap can't establish
  EXPECT_GT(r.closed, 0u);  // before and after the flap, traffic flows
  EXPECT_EQ(r.opened, r.closed + r.failed);
}

TEST(Scenario, LossBurstHangsSessionsButNeverLosesAccounting) {
  sc::ScenarioSpec spec = sc::small_world(1, 4, 2000, 1'000'000.0, 12);
  spec.churn.push_back({sc::ChurnKind::loss_burst, core::microseconds(500),
                        0, core::milliseconds(1), /*loss=*/1.0});
  sc::Scenario s(std::move(spec));
  const sc::Report r = s.run();
  EXPECT_EQ(r.churn_applied, 1u);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.closed, 0u);
  EXPECT_EQ(r.opened, r.closed + r.failed);
}

TEST(Scenario, WanBrownoutSlowsCrossClusterTraffic) {
  sc::ScenarioSpec fast = sc::small_world(2, 3, 300, 1'000'000.0, 77);
  sc::ScenarioSpec slow = fast;
  slow.churn.push_back({sc::ChurnKind::wan_brownout, 0, 0,
                        core::seconds(10), /*fraction=*/0.0001});
  sc::Scenario a(std::move(fast)), b(std::move(slow));
  const sc::Report ra = a.run();
  const sc::Report rb = b.run();
  EXPECT_EQ(rb.churn_applied, 1u);
  EXPECT_EQ(rb.opened, rb.closed + rb.failed);
  EXPECT_GT(rb.duration, ra.duration);  // starved WAN stretches the run
}

TEST(Scenario, OverlappingFaultsRestoreTheSpecWhenTheLastOneEnds) {
  // Two faults of every kind overlap on one network, over [100, 400)
  // and [200, 500) us: the later fault's setting holds through the
  // overlap, and the spec's state is back only once both have ended.
  sc::ScenarioSpec spec = sc::small_world(2, 2, 50, 100'000.0, 5);
  for (const auto& [at, loss] : {std::pair{100, 0.5}, std::pair{200, 0.25}}) {
    const core::SimTime t = core::microseconds(at);
    const core::Duration d = core::microseconds(300);
    spec.churn.push_back({sc::ChurnKind::link_flap, t, 0, d, 0.0});
    spec.churn.push_back({sc::ChurnKind::loss_burst, t, 0, d, loss});
    spec.churn.push_back({sc::ChurnKind::wan_brownout, t, 0, d, 0.25});
  }
  sc::Scenario s(std::move(spec));
  // The scenario declares the WAN first, then one network per cluster.
  sn::Network& wan = s.grid().fabric().network(0);
  sn::Network& lan = s.grid().fabric().network(1);
  ASSERT_EQ(wan.model().name, s.spec().wan.name);
  ASSERT_TRUE(lan.attached(0));
  const std::uint64_t wan_bps = s.spec().wan.bytes_per_second;

  bool up_mid = true;
  double loss_mid = 0.0;
  std::uint64_t bps_mid = 0;
  s.grid().engine().schedule_at(core::microseconds(450), [&] {
    up_mid = lan.up();
    loss_mid = lan.model().loss_rate;
    bps_mid = wan.model().bytes_per_second;
  });
  const sc::Report r = s.run();
  EXPECT_EQ(r.churn_applied, 6u);
  EXPECT_EQ(r.opened, r.closed + r.failed);

  EXPECT_FALSE(up_mid);
  EXPECT_EQ(loss_mid, 0.25);
  EXPECT_EQ(bps_mid, wan_bps / 4);  // the spec's bandwidth, not compounded

  EXPECT_TRUE(lan.up());
  EXPECT_EQ(lan.model().loss_rate, s.spec().clusters[0].profile.loss_rate);
  EXPECT_EQ(wan.model().bytes_per_second, wan_bps);
}

// ---------------------------------------------------------------------------
// Grid live mutation + simnet churn hooks (the substrate)
// ---------------------------------------------------------------------------

TEST(GridLiveOps, AddAttachRemove) {
  gr::Grid grid;
  grid.add_nodes(2);
  const sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  grid.attach(lan, 0);
  grid.attach(lan, 1);
  grid.build();
  EXPECT_EQ(grid.alive_count(), 2u);

  const core::NodeId id = grid.add_node_live();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(grid.size(), 3u);
  EXPECT_TRUE(grid.alive(id));
  grid.attach_live(lan, id);

  // The late joiner is fully wired: node 0 can connect to it.
  bool connected = false;
  grid.node(id).vlink().listen(
      7001, [](std::unique_ptr<padico::vlink::Link>) {});
  grid.node(0).vlink().connect(
      {id, 7001}, [&](core::Result<std::unique_ptr<padico::vlink::Link>> r) {
        connected = r.ok();
      });
  grid.engine().run_until_idle();
  EXPECT_TRUE(connected);

  grid.remove_node_live(id);
  EXPECT_FALSE(grid.alive(id));
  EXPECT_EQ(grid.alive_count(), 2u);
  EXPECT_EQ(grid.size(), 3u);  // ids are never reused

  // Connecting to the removed node now fails unreachable.
  bool failed = false;
  grid.node(0).vlink().connect(
      {id, 7002}, [&](core::Result<std::unique_ptr<padico::vlink::Link>> r) {
        failed = !r.ok();
      });
  grid.engine().run_until_idle();
  EXPECT_TRUE(failed);
}

TEST(SimnetChurn, LinkDownFailsSendsAndRecovers) {
  core::Engine engine;
  sn::Network net(engine, sn::profiles::ethernet100(), 1);
  net.attach(0);
  net.attach(1);
  net.set_receiver(1, [](core::NodeId, core::Bytes) {});
  net.set_up(false);
  EXPECT_FALSE(net.up());
  auto r = net.send(0, 1, core::Bytes{1, 2, 3});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, core::Status::unreachable);
  net.set_up(true);
  EXPECT_TRUE(net.send(0, 1, core::Bytes{1, 2, 3}).ok());
}

TEST(SimnetChurn, ModelSwapPreservesEndpointsAndDetachDrops) {
  core::Engine engine;
  sn::Network net(engine, sn::profiles::ethernet100(), 1);
  net.attach(0);
  net.attach(1);
  int delivered = 0;
  net.set_receiver(1, [&](core::NodeId, core::Bytes) { ++delivered; });

  sn::LinkModel slow = net.model();
  slow.bytes_per_second /= 100;
  net.set_model(slow);
  EXPECT_TRUE(net.attached(0));
  EXPECT_TRUE(net.attached(1));
  EXPECT_TRUE(net.send(0, 1, core::Bytes{9}).ok());
  engine.run_until_idle();
  EXPECT_EQ(delivered, 1);

  // Detach drops in-flight traffic cleanly and fails future sends.
  EXPECT_TRUE(net.send(0, 1, core::Bytes{9}).ok());
  net.detach(1);
  engine.run_until_idle();
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(net.send(0, 1, core::Bytes{9}).ok());
}

TEST(ObsRate, CountsOverTheVirtualWindow) {
  core::Engine engine;
  obs::Rate& r = engine.obs().rate("test.rate");
  engine.schedule_at(core::seconds(2), [&] { r.add(10); });
  engine.run_until_idle();
  EXPECT_EQ(r.count(), 10u);
  EXPECT_EQ(r.elapsed(), core::seconds(2));
  EXPECT_DOUBLE_EQ(r.per_sec(), 5.0);
  EXPECT_NE(engine.obs().snapshot().find("rate test.rate 10"),
            std::string::npos);

  obs::Rate other;
  other.add(10);
  r.merge(other);  // merged window: 10+10 counts over 2+0 seconds
  EXPECT_EQ(r.count(), 20u);
  EXPECT_DOUBLE_EQ(r.per_sec(), 10.0);
}
