// Coverage for the bench/common.hpp base helpers beyond the SAN smoke
// path: unit conversions, message_count clamp edges, the link helpers
// on the ethernet100 profile, and the pair helpers' listener lifetime.
#include "common.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace pc = padico::core;

TEST(BenchHelpers, MbpsUnits) {
  EXPECT_EQ(bench::mbps(0, 0), 0.0);
  EXPECT_EQ(bench::mbps(123456, 0), 0.0);  // zero-duration guard
  EXPECT_DOUBLE_EQ(bench::mbps(1'000'000, pc::seconds(1)), 1.0);
  EXPECT_DOUBLE_EQ(bench::mbps(250'000'000, pc::seconds(1)), 250.0);
  EXPECT_DOUBLE_EQ(bench::mbps(1'000'000, pc::milliseconds(500)), 2.0);
}

TEST(BenchHelpers, MessageCountClampEdges) {
  // size 0 avoids the division by zero and caps like a 1-byte message.
  EXPECT_EQ(bench::message_count(0), 2000);
  EXPECT_EQ(bench::message_count(1), 2000);
  // Mid-range: exactly target / size messages.
  EXPECT_EQ(bench::message_count(16 * 1024), 1024);
  EXPECT_EQ(bench::message_count(1 << 20), 16);
  // Huge messages floor at 8 so the figure still averages a few sends.
  EXPECT_EQ(bench::message_count(16u << 20), 8);
  EXPECT_EQ(bench::message_count(64u << 20), 8);
}

TEST(BenchHelpers, LinkPairConnectsOnEthernet100) {
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  bench::LinkPair p = bench::make_link_pair(grid, "sysio", 3600);
  ASSERT_TRUE(p.a && p.b);
  EXPECT_EQ(p.a->remote_node(), 1u);
  EXPECT_EQ(p.b->remote_node(), 0u);
  EXPECT_EQ(p.b->local_port(), 3600);
}

TEST(BenchHelpers, LinkLatencyOnEthernet100IsInRange) {
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  bench::LinkPair p = bench::make_link_pair(grid, "sysio", 3610);
  const double lat = bench::link_latency_run(grid, p).value;
  // Ethernet-100 profile: 50 us wire latency + ~5 us tx for the framed
  // 1-byte ping + arbitration dispatch.
  EXPECT_GT(lat, 50.0);
  EXPECT_LT(lat, 62.0);
}

TEST(BenchHelpers, LinkBandwidthStampsInsideTheSenderTask) {
  // The t0 convention fix: with a quiet grid the measured window equals
  // the transfer time, so the TCP reference lands on its plateau.
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  bench::LinkPair p = bench::make_link_pair(grid, "sysio", 3620);
  const double bw = bench::link_bandwidth_run(grid, p, 256 * 1024, 8).value;
  EXPECT_GT(bw, 10.0);
  EXPECT_LT(bw, 12.5);
}

TEST(BenchHelpers, BandwidthIsDeterministicAcrossGrids) {
  auto once = [] {
    bench::gr::Grid grid;
    bench::attach_testbed(grid);
    grid.build();
    bench::LinkPair p = bench::make_link_pair(grid, "sysio", 3630);
    return bench::link_bandwidth_run(grid, p, 64 * 1024, 8).value;
  };
  EXPECT_EQ(once(), once());
}

TEST(BenchHelpers, MakeLinkPairAutoRoutesThroughChooser) {
  // "auto" listens on every driver and lets node 0's chooser pick the
  // method: on the testbed that is the SAN, so the round trip stays an
  // order of magnitude under the 50 us LAN.
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  EXPECT_EQ(grid.node(0).chooser().choose(1), "madio");
  bench::LinkPair p = bench::make_link_pair(grid, "auto", 3670);
  ASSERT_TRUE(p.a && p.b);
  const double lat = bench::link_latency_run(grid, p).value;
  EXPECT_LT(lat, 15.0);
}

TEST(BenchHelpers, PairHelpersStopAcceptingOnceUp) {
  // Each helper's accept callback writes into the pair it returns, so
  // once the pair is up a later connect to its port must be refused
  // rather than replace the caller's server end.
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  const pc::Port port = 3680;
  auto second_connect = [&](const std::string& method) {
    std::optional<pc::Status> status;
    auto done = [&](pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
      status = r.status();
    };
    if (method == "auto") {
      grid.node(0).vlink().connect({1, port}, done);
    } else {
      grid.node(0).vlink().connect(method, {1, port}, done);
    }
    grid.engine().run_while_pending([&] { return status.has_value(); });
    return status;
  };
  // One port for all three: a listener left behind by one helper would
  // also collide with the next helper's listen.
  for (const std::string method : {"sysio", "madio", "auto"}) {
    bench::LinkPair p = bench::make_link_pair(grid, method, port);
    const padico::vlink::Link* server = p.b.get();
    EXPECT_EQ(second_connect(method), pc::Status::refused) << method;
    EXPECT_EQ(p.b.get(), server) << method;
  }
  bench::JsockPair jp = bench::make_jsock_pair(grid, port);
  const padico::jsock::JavaSocket* server = jp.server.get();
  EXPECT_EQ(second_connect("auto"), pc::Status::refused);
  EXPECT_EQ(jp.server.get(), server);
}

TEST(BenchHelpers, CircuitLatencyUndercutsVLinkOnMyrinet) {
  // The Table 1 ordering the circuit layer exists for: a circuit pays
  // one control header straight on its Madeleine channel, the VLink
  // path over the same SAN stacks MadIO + MadIODriver on top.
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  auto set =
      grid.make_circuit("bh", padico::circuit::Group({0, 1}), 0x60, 3640);
  const double circuit = bench::circuit_latency_run(grid, set).value;
  bench::LinkPair p = bench::make_link_pair(grid, "madio", 3641);
  const double vlink = bench::link_latency_run(grid, p).value;
  EXPECT_LT(circuit, vlink);
  // Paper ballpark: 8.4 us one-way over Myrinet-2000.
  EXPECT_GT(circuit, 7.0);
  EXPECT_LT(circuit, 9.0);
}

TEST(BenchHelpers, CircuitBandwidthStampsBeforeFirstSend) {
  // t0 convention: the window opens at the sender's first send, so on a
  // quiet grid the figure sits on the Myrinet plateau (~226 MB/s with
  // per-frame overheads) even though make_circuit already advanced the
  // virtual clock during establishment.
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  auto set =
      grid.make_circuit("bw", padico::circuit::Group({0, 1}), 0x61, 3650);
  EXPECT_GT(grid.engine().now(), 0u);  // establishment consumed time
  const double bw = bench::circuit_bandwidth_run(grid, set, 256 * 1024).value;
  EXPECT_GT(bw, 215.0);
  EXPECT_LT(bw, 235.0);
}

TEST(BenchHelpers, CircuitFiguresAreDeterministicAcrossGrids) {
  auto once = [] {
    bench::gr::Grid grid;
    bench::attach_testbed(grid);
    grid.build();
    auto set =
        grid.make_circuit("det", padico::circuit::Group({0, 1}), 0x62, 3660);
    const double lat = bench::circuit_latency_run(grid, set).value;
    const double bw = bench::circuit_bandwidth_run(grid, set, 1 << 20).value;
    return std::make_pair(lat, bw);
  };
  EXPECT_EQ(once(), once());
}
