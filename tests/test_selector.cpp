// selector::Chooser coverage: classification on the paper's
// topologies, ranking (including the WAN override), path security,
// answers through topology churn, and the SelectionPolicy plumbing
// through VLink::connect.
#include "selector/selector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/core.hpp"
#include "grid/grid.hpp"
#include "simnet/simnet.hpp"
#include "vlink/net_driver.hpp"
#include "vlink/pstream_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace sel = padico::selector;

namespace {

/// bench_selector's topology: two 2-node Myrinet clusters joined by
/// the VTHD WAN.
void two_clusters(gr::Grid& grid, const std::string& wan_method = {}) {
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
  opts.wan_method = wan_method;
  grid.build(opts);
}

}  // namespace

TEST(Selector, NetClassNames) {
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::loopback), "loopback");
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::san), "san");
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::lan), "lan");
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::wan), "wan");
}

TEST(Selector, ClassifiesTwoClusterTopology) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(0), sel::NetClass::loopback);
  EXPECT_EQ(ch.classify(1), sel::NetClass::san);
  EXPECT_EQ(ch.classify(2), sel::NetClass::wan);
  EXPECT_EQ(ch.classify(3), sel::NetClass::wan);
}

TEST(Selector, ClassifiesLanOnTestbed) {
  // SAN + LAN dual-network testbed seen from a node that shares only
  // the LAN with the peer.
  gr::Grid grid;
  grid.add_nodes(3);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  grid.attach(san, 0);
  grid.attach(san, 1);
  for (pc::NodeId i = 0; i < 3; ++i) grid.attach(lan, i);
  grid.build();
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(1), sel::NetClass::san);  // tightest class wins
  EXPECT_EQ(ch.classify(2), sel::NetClass::lan);
  EXPECT_EQ(ch.choose(1), "madio");
  EXPECT_EQ(ch.choose(2), "sysio");
}

TEST(Selector, ChoosesMadioIntraClusterAndSysioAcrossWanByDefault) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.choose(0), "loopback");
  EXPECT_EQ(ch.choose(1), "madio");
  // Parallel streams are opt-in (the paper "activates" them); the
  // default wan method is plain TCP.
  EXPECT_EQ(ch.choose(2), "sysio");
}

TEST(Selector, WanMethodOverride) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.choose(2), "pstream");
  // The override never leaks into nearer classes.
  EXPECT_EQ(ch.choose(1), "madio");
  // set_wan_method re-ranks (and "" restores the default).
  ch.set_wan_method("sysio");
  EXPECT_EQ(ch.choose(2), "sysio");
  ch.set_wan_method("");
  EXPECT_EQ(ch.choose(2), "sysio");
  // An override naming a driver that cannot reach the peer falls back
  // to the default ranking instead of failing the connect.
  ch.set_wan_method("madio");
  EXPECT_EQ(ch.choose(2), "sysio");
}

TEST(Selector, LossyWanPrefersTheVrpAdapter) {
  // Two SAN clusters joined by a LOSSY transcontinental link: the
  // default WAN pick would be the raw (frame-dropping) "sysio", so the
  // chooser swaps in the loss-tolerant "vrp" sibling the grid stacked
  // on it.
  gr::Grid grid;
  grid.add_nodes(4);
  sn::NetId sanA = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId sanB = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId wan =
      grid.add_network(sn::profiles::transcontinental_internet(0.07));
  grid.attach(sanA, 0);
  grid.attach(sanA, 1);
  grid.attach(sanB, 2);
  grid.attach(sanB, 3);
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(wan, i);
  gr::BuildOptions opts;
  opts.vrp.max_loss = 0.1;
  grid.build(opts);

  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(2), sel::NetClass::wan);
  EXPECT_EQ(ch.choose(2), "vrp");
  // Intra-cluster traffic is untouched by the refinement.
  EXPECT_EQ(ch.choose(1), "madio");
  // Pinning the raw lossy method is a deliberate ablation choice the
  // chooser honours (the override is exempt from the swap).
  ch.set_wan_method("sysio");
  EXPECT_EQ(ch.choose(2), "sysio");
  ch.set_wan_method("");
  EXPECT_EQ(ch.choose(2), "vrp");
}

TEST(Selector, PathSecurityFollowsTheProfiles) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_TRUE(ch.path_secure(0));   // loopback never leaves the node
  EXPECT_TRUE(ch.path_secure(1));   // machine-room SAN
  EXPECT_FALSE(ch.path_secure(2));  // shared WAN backbone
}

TEST(Selector, AnswersFollowTheTopologyThroughChurn) {
  // Two Myrinet clusters joined by a lossy WAN.  Every answer is
  // computed from the topology as it stands at the call, so each
  // change below shows up in the very next answer.
  gr::Grid grid;
  grid.add_nodes(4);
  sn::NetId sanA = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId sanB = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId wan =
      grid.add_network(sn::profiles::transcontinental_internet(0.07));
  grid.attach(sanA, 0);
  grid.attach(sanA, 1);
  grid.attach(sanB, 2);
  grid.attach(sanB, 3);
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(wan, i);
  gr::BuildOptions opts;
  opts.vrp.max_loss = 0.1;
  grid.build(opts);
  sel::Chooser& ch = grid.node(0).chooser();

  // A model swap re-ranks: the clean profile drops the vrp preference,
  // and the lossy one brings it back.
  EXPECT_EQ(ch.choose(2), "vrp");
  sn::Network& wan_net = grid.fabric().network(wan);
  const sn::LinkModel lossy = wan_net.model();
  wan_net.set_model(sn::profiles::vthd_wan());
  EXPECT_EQ(ch.choose(2), "sysio");
  wan_net.set_model(lossy);
  EXPECT_EQ(ch.choose(2), "vrp");

  // A live joiner is unreachable until attached, then rides the SAN
  // both ways.
  const pc::NodeId joiner = grid.add_node_live();
  EXPECT_THROW(ch.choose(joiner), std::runtime_error);
  grid.attach_live(sanA, joiner);
  EXPECT_EQ(ch.choose(joiner), "madio");
  EXPECT_EQ(grid.node(joiner).chooser().choose(1), "madio");

  // A removed node is unreachable; every other answer stays put.
  grid.remove_node_live(3);
  EXPECT_THROW(ch.choose(3), std::runtime_error);
  pc::Error error;
  EXPECT_EQ(ch.select(3, &error), nullptr);
  EXPECT_EQ(error.status, pc::Status::unreachable);
  EXPECT_EQ(ch.choose(1), "madio");
  EXPECT_EQ(ch.choose(2), "vrp");

  // Node 2 leaving the WAN cuts node 0's only path to it.
  wan_net.detach(2);
  EXPECT_THROW(ch.choose(2), std::runtime_error);
  EXPECT_FALSE(ch.path_secure(2));
}

TEST(Selector, UnreachablePeerClassifiesWanAndFailsChoose) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  grid.attach(san, 0);
  grid.attach(san, 1);
  grid.build();
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(7), sel::NetClass::wan);  // conservative default
  EXPECT_FALSE(ch.path_secure(7));
  EXPECT_THROW(ch.choose(7), std::runtime_error);
  pc::Error error;
  EXPECT_EQ(ch.select(7, &error), nullptr);
  EXPECT_EQ(error.status, pc::Status::unreachable);
}

TEST(Selector, VLinkConnectDelegatesToChooser) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  // Method-less connect across the WAN must come out of the pstream
  // driver: the established link is striped (width = pstream_width).
  std::unique_ptr<vl::Link> a, b;
  grid.node(2).vlink().driver("pstream")->listen(
      9100, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      {2, 9100}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  auto* striped = dynamic_cast<vl::PstreamLink*>(a.get());
  ASSERT_NE(striped, nullptr);
  EXPECT_EQ(striped->width(), grid.options().pstream_width);

  // Connecting to the local node is a selection error, not a hang.
  std::optional<pc::Status> status;
  grid.node(0).vlink().connect(
      {0, 9101}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        status = r.status();
      });
  EXPECT_EQ(status, pc::Status::unreachable);
}

TEST(Selector, HandBuiltVLinkKeepsFirstReachableDefault) {
  // Without a chooser installed, the extracted FirstReachablePolicy
  // preserves the pre-selector behaviour: insertion order wins.
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san = fabric.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = fabric.add_network(sn::profiles::ethernet100());
  for (pc::NodeId n = 0; n < 2; ++n) {
    fabric.attach(san, n);
    fabric.attach(lan, n);
  }
  pc::Host h0(engine, 0), h1(engine, 1);
  vl::VLink v0(h0), v1(h1);
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(lan), "sysio"));
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(san), "madio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(lan), "sysio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(san), "madio"));
  std::unique_ptr<vl::Link> a, b;
  v1.listen(9200, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  v0.connect({1, 9200}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok());
    a = std::move(*r);
  });
  engine.run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a);
  // First registered driver (sysio here) wins regardless of class.
  EXPECT_EQ(b->remote_node(), 0u);
  EXPECT_GT(pc::to_micros(engine.now()), 100.0);  // the 50 us LAN, not the SAN
}
