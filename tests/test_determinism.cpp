// Acceptance criterion for the bootstrap PR: two runs of the same vlink
// ping-pong over the paper testbed produce bit-identical virtual
// timestamps.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include <optional>
#include <string>

#include "adapters/vrp.hpp"
#include "core/core.hpp"
#include "grid/grid.hpp"
#include "madeleine/circuit.hpp"
#include "madeleine/madeleine.hpp"
#include "middleware/corba/orb.hpp"
#include "middleware/mpi/mpi.hpp"
#include "net/madio.hpp"
#include "obs/obs.hpp"
#include "scenario/scenario.hpp"
#include "selector/selector.hpp"
#include "simnet/simnet.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;

namespace {

struct RunTrace {
  std::vector<pc::SimTime> round_stamps;
  pc::SimTime final_now = 0;
  std::uint64_t events = 0;

  bool operator==(const RunTrace&) const = default;
};

RunTrace ping_pong_run(int rounds) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (pc::NodeId i = 0; i < 2; ++i) {
    grid.attach(san, i);
    grid.attach(lan, i);
  }
  grid.build();

  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().driver("madio")->listen(
      7000, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      "madio", {1, 7000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });

  RunTrace trace;
  bool done = false;
  auto client = [&]() -> pc::Task {
    for (int i = 0; i < rounds; ++i) {
      a->post_write(pc::view_of("x"));
      co_await a->read_n(1);
      trace.round_stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < rounds; ++i) {
      pc::Bytes ball = co_await b->read_n(1);
      b->post_write(pc::view_of(ball));
    }
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });

  trace.final_now = grid.engine().now();
  trace.events = grid.engine().processed();
  return trace;
}

}  // namespace

TEST(Determinism, PingPongTimestampsBitIdenticalAcrossRuns) {
  const RunTrace first = ping_pong_run(32);
  const RunTrace second = ping_pong_run(32);
  ASSERT_EQ(first.round_stamps.size(), 32u);
  EXPECT_EQ(first, second);
}

TEST(Determinism, RoundTripsAreEvenlySpaced) {
  const RunTrace t = ping_pong_run(8);
  ASSERT_GE(t.round_stamps.size(), 2u);
  // In steady state every round trip costs the same virtual duration.
  const pc::Duration rtt = t.round_stamps[1] - t.round_stamps[0];
  for (std::size_t i = 2; i < t.round_stamps.size(); ++i) {
    EXPECT_EQ(t.round_stamps[i] - t.round_stamps[i - 1], rtt) << "round " << i;
  }
  // Full MadIO stack on the Myrinet profile: RTT ~ 2 * (7 us wire
  // latency + GM injection + stacked headers + arbitration dispatch),
  // matching the paper's ~10 us one-way full-stack ballpark.
  EXPECT_GT(pc::to_micros(rtt), 15.0);
  EXPECT_LT(pc::to_micros(rtt), 18.0);
}

namespace {

/// A MadIO run with two competing tags on the grid's SAN stack: a
/// ping-pong on tag 1 racing a one-way burst on tag 2, both funnelled
/// through the same per-node arbitration.  Returns every dispatch
/// timestamp in order.
std::vector<pc::SimTime> madio_two_tag_run(bool header_combining) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  grid.attach(san, 0);
  grid.attach(san, 1);
  gr::BuildOptions opts;
  opts.header_combining = header_combining;
  grid.build(opts);

  padico::net::MadIO* io0 = grid.node(0).madio();
  padico::net::MadIO* io1 = grid.node(1).madio();
  EXPECT_NE(io0, nullptr);
  EXPECT_NE(io1, nullptr);

  std::vector<pc::SimTime> stamps;

  // Tag 1: 12-round ping-pong.
  const int rounds = 12;
  int pongs = 0;
  io1->set_handler(1, [&](pc::NodeId, padico::mad::UnpackHandle&) {
    stamps.push_back(grid.engine().now());
    io1->send(1, 0, pc::view_of("pong"));
  });
  io0->set_handler(1, [&](pc::NodeId, padico::mad::UnpackHandle&) {
    stamps.push_back(grid.engine().now());
    if (++pongs < rounds) io0->send(1, 1, pc::view_of("ping"));
  });
  // Tag 2: competing 2 KB burst node 0 -> node 1, ack-clocked.
  int bursts = 0;
  io1->set_handler(2, [&](pc::NodeId, padico::mad::UnpackHandle& u) {
    stamps.push_back(grid.engine().now());
    EXPECT_EQ(u.remaining(), 2048u);
    io1->send(2, 0, pc::view_of("k"));
  });
  io0->set_handler(2, [&](pc::NodeId, padico::mad::UnpackHandle&) {
    stamps.push_back(grid.engine().now());
    if (++bursts < 8) io0->send(2, 1, pc::view_of(pc::Bytes(2048, 0x22)));
  });

  io0->send(1, 1, pc::view_of("ping"));
  io0->send(2, 1, pc::view_of(pc::Bytes(2048, 0x22)));
  grid.engine().run_until_idle();

  EXPECT_EQ(pongs, rounds);
  EXPECT_EQ(bursts, 8);
  return stamps;
}

}  // namespace

TEST(Determinism, MadIOTwoTagTimestampsBitIdenticalAcrossRuns) {
  EXPECT_EQ(madio_two_tag_run(true), madio_two_tag_run(true));
  EXPECT_EQ(madio_two_tag_run(false), madio_two_tag_run(false));
}

TEST(Determinism, HeaderCombiningIsARealCodePathDifference) {
  // The ablation must not be cosmetic: combined and naive runs produce
  // different (each deterministic) timestamp traces.
  EXPECT_NE(madio_two_tag_run(true), madio_two_tag_run(false));
}

namespace {

/// Turns full tracing on for every engine built while alive (the
/// default-mask hook new tracers pick up), restoring "off" after.
struct ScopedTracing {
  ScopedTracing() { padico::obs::set_default_trace_mask(padico::obs::kAllCats); }
  ~ScopedTracing() { padico::obs::set_default_trace_mask(0); }
};

/// A 4-node circuit exercising multi-node groups: a token ring on one
/// circuit racing a 2 KB pairwise burst on an overlapping second
/// circuit, both arbitrated per node.  Returns every handler-dispatch
/// timestamp in order.  With `trace_digest` non-null the run executes
/// fully traced and leaves the tracer's stable digest there.
std::vector<pc::SimTime> circuit_ring_run(std::string* trace_digest = nullptr) {
  std::optional<ScopedTracing> tracing;
  if (trace_digest != nullptr) tracing.emplace();
  gr::Grid grid;
  grid.add_nodes(4);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(san, i);
  grid.build();

  gr::CircuitSet ring =
      grid.make_circuit("ring", padico::circuit::Group({0, 1, 2, 3}), 1, 7100);
  gr::CircuitSet pair =
      grid.make_circuit("pair", padico::circuit::Group({2, 0}), 2, 7101);

  std::vector<pc::SimTime> stamps;
  int hops = 0;
  for (int r = 0; r < 4; ++r) {
    ring.at(r).set_recv_handler([&, r](int, padico::mad::UnpackHandle&) {
      stamps.push_back(grid.engine().now());
      if (++hops < 16) ring.at(r).send((r + 1) % 4, pc::view_of("t"));
    });
  }
  int bursts = 0;
  pair.at(1).set_recv_handler([&](int, padico::mad::UnpackHandle& u) {
    stamps.push_back(grid.engine().now());
    EXPECT_EQ(u.remaining(), 2048u);
    pair.at(1).send(0, pc::view_of("k"));
  });
  pair.at(0).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    stamps.push_back(grid.engine().now());
    if (++bursts < 6) pair.at(0).send(1, pc::view_of(pc::Bytes(2048, 0x33)));
  });

  ring.at(0).send(1, pc::view_of("t"));
  pair.at(0).send(1, pc::view_of(pc::Bytes(2048, 0x33)));
  grid.engine().run_until_idle();

  EXPECT_EQ(hops, 16);
  EXPECT_EQ(bursts, 6);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(ring.at(r).seq_gaps(), 0u) << "rank " << r;
    EXPECT_EQ(ring.at(r).dropped(), 0u) << "rank " << r;
  }
  if (trace_digest != nullptr) *trace_digest = grid.engine().tracer().digest();
  return stamps;
}

}  // namespace

TEST(Determinism, CircuitRingTimestampsBitIdenticalAcrossRuns) {
  EXPECT_EQ(circuit_ring_run(), circuit_ring_run());
}

namespace {

/// Two SAN clusters joined by the VTHD WAN, every connect method-less
/// (the chooser picks): an intra-cluster ping-pong (madio) racing a
/// cross-WAN striped transfer (pstream via the wan_method override).
/// Returns every interesting timestamp in order.
std::vector<pc::SimTime> auto_selection_run() {
  gr::Grid grid;
  grid.add_nodes(4);
  sn::NetId sanA = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId sanB = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId wan = grid.add_network(sn::profiles::vthd_wan());
  grid.attach(sanA, 0);
  grid.attach(sanA, 1);
  grid.attach(sanB, 2);
  grid.attach(sanB, 3);
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(wan, i);
  gr::BuildOptions opts;
  opts.wan_method = "pstream";
  opts.pstream_width = 3;
  grid.build(opts);

  EXPECT_EQ(grid.node(0).chooser().choose(1), "madio");
  EXPECT_EQ(grid.node(0).chooser().choose(2), "pstream");

  std::unique_ptr<vl::Link> near_a, near_b, far_a, far_b;
  grid.node(1).vlink().listen(
      7200, [&](std::unique_ptr<vl::Link> l) { near_b = std::move(l); });
  grid.node(2).vlink().listen(
      7201, [&](std::unique_ptr<vl::Link> l) { far_b = std::move(l); });
  grid.node(0).vlink().connect(
      {1, 7200}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        near_a = std::move(*r);
      });
  grid.node(0).vlink().connect(
      {2, 7201}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        far_a = std::move(*r);
      });
  grid.engine().run_while_pending(
      [&] { return near_a && near_b && far_a && far_b; });

  std::vector<pc::SimTime> stamps;
  stamps.push_back(grid.engine().now());
  bool near_done = false, far_done = false;
  auto near_client = [&]() -> pc::Task {
    for (int i = 0; i < 16; ++i) {
      near_a->post_write(pc::view_of("x"));
      co_await near_a->read_n(1);
      stamps.push_back(grid.engine().now());
    }
    near_done = true;
  };
  auto near_server = [&]() -> pc::Task {
    for (int i = 0; i < 16; ++i) {
      pc::Bytes ball = co_await near_b->read_n(1);
      near_b->post_write(pc::view_of(ball));
    }
  };
  auto far_reader = [&]() -> pc::Task {
    co_await far_b->read_n(120 * 1024);
    stamps.push_back(grid.engine().now());
    far_done = true;
  };
  auto t1 = near_server();
  auto t2 = near_client();
  auto t3 = far_reader();
  far_a->post_write(pc::view_of(pc::Bytes(120 * 1024, 0x44)));
  grid.engine().run_while_pending([&] { return near_done && far_done; });
  stamps.push_back(grid.engine().now());
  return stamps;
}

}  // namespace

TEST(Determinism, TwoClusterAutoSelectionTraceBitIdenticalAcrossRuns) {
  EXPECT_EQ(auto_selection_run(), auto_selection_run());
}

namespace {

/// Personality traffic on a 2-cluster grid, method-less end to end: an
/// MPI ping-pong inside cluster A (SAN circuit, mad substrate) races
/// CORBA invocations from cluster B into cluster A across the WAN
/// (chooser-picked sysio, sys substrate).  Returns the event digest —
/// every interesting timestamp in order, plus the engine event count.
/// With `trace_digest` non-null the run executes fully traced and
/// leaves the tracer's stable digest there.
std::vector<pc::SimTime> personality_run(std::string* trace_digest = nullptr) {
  std::optional<ScopedTracing> tracing;
  if (trace_digest != nullptr) tracing.emplace();
  gr::Grid grid;
  grid.add_nodes(4);
  sn::NetId sanA = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId sanB = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId wan = grid.add_network(sn::profiles::vthd_wan());
  grid.attach(sanA, 0);
  grid.attach(sanA, 1);
  grid.attach(sanB, 2);
  grid.attach(sanB, 3);
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(wan, i);
  grid.build();

  gr::CircuitSet set =
      grid.make_circuit("det-mpi", padico::circuit::Group({0, 1}), 0x60, 7300);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));

  padico::orb::Orb server(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::omniorb4(), 7310);
  server.activate("monitor", [](const std::string&,
                                std::vector<padico::orb::Any> args) {
    return args;
  });
  server.start();
  padico::orb::Orb client(grid.node(2).host(), grid.node(2).vlink(),
                          padico::orb::profiles::omniorb4(), 7311);

  std::vector<pc::SimTime> stamps;
  bool mpi_done = false, orb_done = false;
  auto mpi_rank1 = [&]() -> pc::Task {
    for (int i = 0; i < 12; ++i) {
      pc::Bytes b = co_await c1.recv(0, 5);
      c1.isend(0, 5, pc::view_of(b));
    }
  };
  auto mpi_rank0 = [&]() -> pc::Task {
    pc::Bytes ball(256, 0x5A);
    for (int i = 0; i < 12; ++i) {
      co_await c0.sendrecv(1, 5, pc::view_of(ball), 1, 5);
      stamps.push_back(grid.engine().now());
    }
    mpi_done = true;
  };
  auto orb_client = [&]() -> pc::Task {
    // invoke() calls stay out of co_await full-expressions (GCC 12
    // coroutine gotcha; see DESIGN.md "Conventions").
    const padico::orb::ObjectRef ref = server.ref_of("monitor");
    const std::string probe_m = "probe";
    for (int i = 0; i < 8; ++i) {
      std::vector<padico::orb::Any> args;
      args.emplace_back(pc::Bytes(512, 0x33));
      auto call = client.invoke(ref, probe_m, std::move(args));
      co_await call;
      stamps.push_back(grid.engine().now());
    }
    orb_done = true;
  };
  auto t1 = mpi_rank1();
  auto t2 = mpi_rank0();
  auto t3 = orb_client();
  grid.engine().run_while_pending([&] { return mpi_done && orb_done; });

  EXPECT_EQ(c0.seq_gaps(), 0u);
  EXPECT_EQ(c1.seq_gaps(), 0u);
  EXPECT_EQ(server.protocol_errors(), 0u);
  stamps.push_back(grid.engine().now());
  stamps.push_back(grid.engine().processed());
  if (trace_digest != nullptr) *trace_digest = grid.engine().tracer().digest();
  return stamps;
}

}  // namespace

TEST(Determinism, PersonalityTrafficDigestBitIdenticalAcrossRuns) {
  EXPECT_EQ(personality_run(), personality_run());
}

TEST(Determinism, PersonalityTrafficMatchesRecording) {
  // Recorded while the ORB still reached its links through a socket
  // wrapper: holding the links directly must move no timestamp.  The
  // trailing engine event count stays out of the fold, so removing an
  // event that moves no instant needs no re-recording.
  const std::vector<pc::SimTime> stamps = personality_run();
  ASSERT_EQ(stamps.size(), 22u);  // 12 MPI + 8 ORB + final now + events
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (std::size_t i = 0; i + 1 < stamps.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (stamps[i] >> (8 * b)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(digest, 0x461d16570945a238ull) << std::hex << digest;
}

// --- Observability must not perturb the simulation -------------------------

TEST(Determinism, CircuitRingUnchangedByTracing) {
  const std::vector<pc::SimTime> untraced = circuit_ring_run();
  std::string digest_a;
  const std::vector<pc::SimTime> traced = circuit_ring_run(&digest_a);
  // Recording is stamp-and-store only: full tracing cannot move a
  // single virtual timestamp.
  EXPECT_EQ(untraced, traced);
  EXPECT_FALSE(digest_a.empty());
  // And the trace itself is deterministic: a second traced run digests
  // bit-identically.
  std::string digest_b;
  circuit_ring_run(&digest_b);
  EXPECT_EQ(digest_a, digest_b);
}

TEST(Determinism, PersonalityTrafficUnchangedByTracing) {
  const std::vector<pc::SimTime> untraced = personality_run();
  std::string digest_a;
  const std::vector<pc::SimTime> traced = personality_run(&digest_a);
  EXPECT_EQ(untraced, traced);
  EXPECT_FALSE(digest_a.empty());
  std::string digest_b;
  personality_run(&digest_b);
  EXPECT_EQ(digest_a, digest_b);
}

namespace {

/// A loss-tolerant VRP transfer over the 7 % transcontinental profile
/// at the paper's 10 % budget: retransmissions, give-ups and ack
/// clocking all ride the deterministic loss pattern, so every read
/// timestamp — and with tracing on, the full trace digest — must be
/// bit-identical across runs.
std::vector<pc::SimTime> vrp_lossy_run(std::string* trace_digest = nullptr) {
  std::optional<ScopedTracing> tracing;
  if (trace_digest != nullptr) tracing.emplace();
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId net =
      grid.add_network(sn::profiles::transcontinental_internet(0.07));
  grid.attach(net, 0);
  grid.attach(net, 1);
  gr::BuildOptions opts;
  opts.vrp.max_loss = 0.10;
  grid.build(opts);

  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().driver("vrp")->listen(
      7400, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      "vrp", {1, 7400}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });

  std::vector<pc::SimTime> stamps;
  stamps.push_back(grid.engine().now());
  std::uint64_t received = 0;
  bool eof = false;
  b->set_ready_handler([&] {
    received += b->read_available().size();
    stamps.push_back(grid.engine().now());
    if (b->eof_seen()) eof = true;
  });
  a->post_write(pc::view_of(pc::Bytes(128 * 1024, 0x5a)));
  a->post_close();
  grid.engine().run_while_pending([&] { return eof; });
  grid.engine().run_until_idle();
  EXPECT_TRUE(eof);

  // Fold the loss accounting into the digest: identical runs must skip
  // the exact same bytes, not just finish at the same instant.
  auto* vrp = dynamic_cast<vl::VrpLink*>(b.get());
  EXPECT_NE(vrp, nullptr);
  if (vrp != nullptr) {
    stamps.push_back(received);
    stamps.push_back(vrp->skipped_bytes());
    stamps.push_back(vrp->give_ups());
  }
  stamps.push_back(grid.engine().now());
  stamps.push_back(grid.engine().processed());
  if (trace_digest != nullptr) *trace_digest = grid.engine().tracer().digest();
  return stamps;
}

}  // namespace

TEST(Determinism, VrpLossyTransferDigestBitIdenticalAcrossRuns) {
  EXPECT_EQ(vrp_lossy_run(), vrp_lossy_run());
}

TEST(Determinism, VrpLossyTransferUnchangedByTracing) {
  const std::vector<pc::SimTime> untraced = vrp_lossy_run();
  std::string digest_a;
  const std::vector<pc::SimTime> traced = vrp_lossy_run(&digest_a);
  EXPECT_EQ(untraced, traced);
  EXPECT_FALSE(digest_a.empty());
  std::string digest_b;
  vrp_lossy_run(&digest_b);
  EXPECT_EQ(digest_a, digest_b);
}

// --- Large-topology scenario tier -------------------------------------------

namespace {

namespace sc = padico::scenario;

/// 32 clusters x 32 nodes = 1024 nodes under one WAN, a few thousand
/// bursty sessions, and one of every churn kind mid-run — the whole
/// scenario engine on one seed.  Sessions are kept modest so the test
/// stays in the fast tier; test_scenario_large drives the six-figure
/// counts.
sc::ScenarioSpec thousand_node_spec() {
  sc::ScenarioSpec spec = sc::small_world(32, 32, 6'000, 2'000'000.0, 17);
  spec.workload.burst_depth = 0.5;
  spec.workload.burst_period = pc::milliseconds(1);
  spec.churn.push_back({sc::ChurnKind::node_join, pc::microseconds(500),
                        /*cluster=*/1, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::node_leave, pc::microseconds(900),
                        /*cluster=*/2, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::link_flap, pc::microseconds(1300), 3,
                        pc::microseconds(400), 0.0});
  spec.churn.push_back({sc::ChurnKind::loss_burst, pc::microseconds(1700), 4,
                        pc::microseconds(400), /*loss=*/0.5});
  spec.churn.push_back({sc::ChurnKind::wan_brownout, pc::microseconds(2100),
                        0, pc::milliseconds(1), /*fraction=*/0.1});
  return spec;
}

sc::Report thousand_node_run(bool traced = false) {
  std::optional<ScopedTracing> tracing;
  if (traced) tracing.emplace();
  sc::Scenario s(thousand_node_spec());
  return s.run();
}

}  // namespace

TEST(Determinism, ThousandNodeScenarioDigestBitIdenticalAcrossRuns) {
  const sc::Report a = thousand_node_run();
  const sc::Report b = thousand_node_run();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.churn_applied, b.churn_applied);
  EXPECT_EQ(a.opened, a.closed + a.failed);
}

TEST(Determinism, ThousandNodeScenarioUnchangedByTracing) {
  const sc::Report untraced = thousand_node_run(false);
  const sc::Report traced = thousand_node_run(true);
  EXPECT_EQ(untraced.digest, traced.digest);
  EXPECT_EQ(untraced.duration, traced.duration);
  EXPECT_EQ(untraced.registry, traced.registry);
}

TEST(Determinism, ScenarioReplayFromDigestRestoresTheRegistry) {
  // The replay contract: a digest identifies a run completely, so a
  // matching digest on a re-run guarantees the full observable state —
  // every counter, rate and histogram in the registry snapshot — is
  // restored bit-for-bit.  A different seed breaks both.
  const sc::Report a = thousand_node_run();
  const sc::Report b = thousand_node_run();
  ASSERT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.registry, b.registry);

  sc::ScenarioSpec other = thousand_node_spec();
  other.seed = 18;
  sc::Scenario s(std::move(other));
  const sc::Report c = s.run();
  EXPECT_NE(c.digest, a.digest);
  EXPECT_NE(c.registry, a.registry);
}

TEST(Determinism, LossyNetworkStillDeterministic) {
  auto run = [] {
    gr::Grid grid;
    grid.add_nodes(2);
    sn::NetId net =
        grid.add_network(sn::profiles::transcontinental_internet(0.07));
    grid.attach(net, 0);
    grid.attach(net, 1);
    grid.build();
    for (int i = 0; i < 32; ++i) {
      grid.fabric().network(net).send(0, 1, pc::Bytes(1500, 0x11));
    }
    grid.engine().run_until_idle();
    return std::make_pair(grid.fabric().network(net).messages_dropped(),
                          grid.engine().now());
  };
  EXPECT_EQ(run(), run());
}
