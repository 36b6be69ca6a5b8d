#include "grid/grid.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "selector/selector.hpp"
#include "simnet/simnet.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;

namespace {

/// The paper's dual-network testbed (same shape as bench::attach_testbed).
void attach_testbed(gr::Grid& grid, int nodes = 2) {
  grid.add_nodes(nodes);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (int i = 0; i < nodes; ++i) {
    grid.attach(san, static_cast<pc::NodeId>(i));
    grid.attach(lan, static_cast<pc::NodeId>(i));
  }
}

}  // namespace

TEST(Grid, BuildCreatesNodesAndDrivers) {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();

  ASSERT_TRUE(grid.built());
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.fabric().network_count(), 2u);

  for (std::size_t i = 0; i < 2; ++i) {
    gr::Node& n = grid.node(i);
    EXPECT_EQ(n.id(), i);
    EXPECT_EQ(n.host().id(), i);
    EXPECT_EQ(&n.host().engine(), &grid.engine());
    // One driver per attachment, named from the profiles, plus the
    // adoc compression adapter every IP attachment gets.
    EXPECT_NE(n.vlink().driver("madio"), nullptr);
    EXPECT_NE(n.vlink().driver("sysio"), nullptr);
    EXPECT_NE(n.vlink().driver("adoc"), nullptr);
    EXPECT_EQ(n.vlink().driver("bogus"), nullptr);
    EXPECT_EQ(n.vlink().drivers().size(), 3u);
  }
}

TEST(Grid, AttachUndeclaredNodeThrows) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId net = grid.add_network(sn::profiles::ethernet100());
  EXPECT_THROW(grid.attach(net, 5), std::out_of_range);
}

TEST(Grid, DuplicateAttachmentThrowsBeforeAnyMutation) {
  // A second stack for one (network, node) pair would take over the
  // first one's network receiver, and method-less connects from that
  // node would never call back.  Both entry points refuse the pair.
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  grid.attach(lan, 0);
  grid.attach(lan, 1);
  try {
    grid.attach(lan, 1);
    ADD_FAILURE() << "duplicate attach() accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("network 0"), std::string::npos);
  }
  grid.build();
  EXPECT_EQ(grid.node(1).vlink().drivers().size(), 2u);  // sysio + adoc

  const pc::NodeId joiner = grid.add_node_live();
  grid.attach_live(lan, joiner);
  EXPECT_THROW(grid.attach_live(lan, joiner), std::invalid_argument);
  EXPECT_EQ(grid.node(joiner).vlink().drivers().size(), 2u);

  bool connected = false;
  grid.node(0).vlink().listen(7001, [](std::unique_ptr<vl::Link>) {});
  grid.node(joiner).vlink().connect(
      {0, 7001}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        connected = r.ok();
      });
  grid.engine().run_until_idle();
  EXPECT_TRUE(connected);
}

TEST(Grid, BuildIsIdempotentAndNodeBeforeBuildThrows) {
  gr::Grid grid;
  grid.add_nodes(1);
  EXPECT_THROW(grid.node(0), std::logic_error);
  grid.build();
  grid.build();  // second call is a no-op
  EXPECT_EQ(grid.size(), 1u);
}

TEST(Grid, BuildOptionsAreRecorded) {
  gr::Grid grid;
  grid.add_nodes(1);
  // wan_method must name a method some node gets, so attach an IP net.
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  grid.attach(lan, 0);
  gr::BuildOptions opts;
  opts.wan_method = "sysio";
  opts.pstream_width = 2;
  opts.header_combining = false;
  opts.vrp.max_loss = 0.1;
  grid.build(opts);
  EXPECT_EQ(grid.options().wan_method, "sysio");
  EXPECT_EQ(grid.options().pstream_width, 2);
  EXPECT_FALSE(grid.options().header_combining);
  EXPECT_DOUBLE_EQ(grid.options().vrp.max_loss, 0.1);
  // ... and it seeds every node chooser's WAN override.
  EXPECT_EQ(grid.node(0).chooser().wan_method(), "sysio");
}

TEST(Grid, BuildValidatesPstreamWidth) {
  for (int bad : {0, -3, 65}) {
    gr::Grid grid;
    grid.add_nodes(1);
    gr::BuildOptions opts;
    opts.pstream_width = bad;
    EXPECT_THROW(grid.build(opts), std::invalid_argument) << bad;
  }
}

TEST(Grid, BuildValidatesVrpMaxLoss) {
  for (double bad : {-0.1, 1.0, 1.5,
                     std::numeric_limits<double>::quiet_NaN()}) {
    gr::Grid grid;
    grid.add_nodes(1);
    gr::BuildOptions opts;
    opts.vrp.max_loss = bad;
    EXPECT_THROW(grid.build(opts), std::invalid_argument) << bad;
    // Like the other validations: before any mutation, retry works.
    EXPECT_FALSE(grid.built());
    opts.vrp.max_loss = 0.1;
    grid.build(opts);
    EXPECT_TRUE(grid.built());
  }
}

TEST(Grid, LossyAttachmentsGetAVrpDriver) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId wan =
      grid.add_network(sn::profiles::transcontinental_internet(0.07));
  grid.attach(wan, 0);
  grid.attach(wan, 1);
  gr::BuildOptions opts;
  opts.vrp.max_loss = 0.1;
  grid.build(opts);
  vl::Driver* sysio = grid.node(0).vlink().driver("sysio");
  vl::Driver* vrp = grid.node(0).vlink().driver("vrp");
  ASSERT_NE(sysio, nullptr);
  ASSERT_NE(vrp, nullptr);
  // The raw driver admits it drops frames; the adapter repairs them.
  EXPECT_TRUE(sysio->lossy());
  EXPECT_FALSE(vrp->lossy());
  EXPECT_TRUE(vrp->has_cap(padico::selector::kCapLossTolerant));
  EXPECT_EQ(vrp->net_class(), padico::selector::NetClass::wan);
  // Loss-free profiles get no vrp stack (adoc rides regardless).
  gr::Grid clean;
  attach_testbed(clean);
  clean.build();
  EXPECT_EQ(clean.node(0).vlink().driver("vrp"), nullptr);
  EXPECT_NE(clean.node(0).vlink().driver("adoc"), nullptr);
}

TEST(Grid, BuildValidatesWanMethod) {
  gr::Grid grid;
  attach_testbed(grid);  // SAN + LAN only: nobody registers "pstream"
  gr::BuildOptions opts;
  opts.wan_method = "pstream";
  EXPECT_THROW(grid.build(opts), std::invalid_argument);
  // Validation fires before any mutation: the grid is still un-built
  // and a corrected retry genuinely builds (not a silent no-op).
  EXPECT_FALSE(grid.built());
  opts.wan_method = "sysio";
  grid.build(opts);
  EXPECT_TRUE(grid.built());
  EXPECT_EQ(grid.node(0).chooser().wan_method(), "sysio");
}

TEST(Grid, WanAttachmentsGetAPstreamDriver) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId wan = grid.add_network(sn::profiles::vthd_wan());
  grid.attach(wan, 0);
  grid.attach(wan, 1);
  grid.build();
  vl::Driver* sysio = grid.node(0).vlink().driver("sysio");
  vl::Driver* pstream = grid.node(0).vlink().driver("pstream");
  ASSERT_NE(sysio, nullptr);
  ASSERT_NE(pstream, nullptr);
  // Affinity and caps derive from the profile, not the method name.
  EXPECT_EQ(sysio->net_class(), padico::selector::NetClass::wan);
  EXPECT_EQ(pstream->net_class(), padico::selector::NetClass::wan);
  EXPECT_FALSE(sysio->has_cap(padico::selector::kCapSecure));
  EXPECT_TRUE(pstream->has_cap(padico::selector::kCapParallel));
  // LAN-class attachments (the testbed) get no pstream stack.
  gr::Grid lan_grid;
  attach_testbed(lan_grid);
  lan_grid.build();
  EXPECT_EQ(lan_grid.node(0).vlink().driver("pstream"), nullptr);
  EXPECT_TRUE(
      lan_grid.node(0).vlink().driver("madio")->has_cap(
          padico::selector::kCapSecure));
}

TEST(Grid, MethodlessConnectPrefersFirstAttachedNetwork) {
  gr::Grid grid;
  attach_testbed(grid);  // SAN attached before LAN on every node
  grid.build();

  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().listen(
      6000, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      {1, 6000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok());
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  // The SAN round-trip is ~14 us; the LAN's would be >= 100 us.
  EXPECT_LT(pc::to_micros(grid.engine().now()), 20.0);
}

TEST(Grid, TwoClusterTopologyRoutesAcrossWan) {
  // bench_selector's shape: two 2-node SAN clusters joined by a WAN.
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

  // Node 0 sees its SAN and the WAN (plus the WAN's pstream and adoc
  // stacks), not cluster B's SAN.
  EXPECT_NE(grid.node(0).vlink().driver("madio"), nullptr);
  EXPECT_NE(grid.node(0).vlink().driver("sysio"), nullptr);
  EXPECT_NE(grid.node(0).vlink().driver("pstream"), nullptr);
  EXPECT_NE(grid.node(0).vlink().driver("adoc"), nullptr);
  EXPECT_EQ(grid.node(0).vlink().drivers().size(), 4u);

  // Cross-cluster: only the WAN reaches node 2 from node 0.
  std::unique_ptr<vl::Link> a, b;
  grid.node(2).vlink().listen(
      6100, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      {2, 6100}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok());
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  // WAN latency (5 ms one-way) dominates the handshake.
  EXPECT_GT(pc::to_millis(grid.engine().now()), 9.0);
}

TEST(Grid, TwinSansOnOneNodeGetDistinctMethods) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san1 = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId san2 = grid.add_network(sn::profiles::myrinet2000());
  for (pc::NodeId i = 0; i < 2; ++i) {
    grid.attach(san1, i);
    grid.attach(san2, i);
  }
  grid.build();
  EXPECT_NE(grid.node(0).vlink().driver("madio"), nullptr);
  EXPECT_NE(grid.node(0).vlink().driver("madio@1"), nullptr);
}

// attach_live plans names from the drivers the node's VLink already
// holds, so a live node gets exactly the names build() gives a node
// with the same attachments, and a built node's later attachment gets
// suffixed names.
TEST(Grid, LiveAttachmentsGetTheNamesABuiltNodeGets) {
  gr::Grid grid;
  grid.add_nodes(2);
  const sn::NetId san1 = grid.add_network(sn::profiles::myrinet2000());
  const sn::NetId san2 = grid.add_network(sn::profiles::myrinet2000());
  const sn::NetId lan1 = grid.add_network(sn::profiles::ethernet100());
  const sn::NetId lan2 = grid.add_network(sn::profiles::ethernet100());
  for (const sn::NetId net : {san1, san2, lan1, lan2}) grid.attach(net, 0);
  grid.attach(lan1, 1);
  grid.build();

  auto names = [&grid](pc::NodeId node) {
    std::vector<std::string> out;
    for (const auto& d : grid.node(node).vlink().drivers()) {
      out.push_back(d->name());
    }
    return out;
  };
  const std::string at_san2 = "@" + std::to_string(san2);
  const std::string at_lan2 = "@" + std::to_string(lan2);
  const std::vector<std::string> built = names(0);
  EXPECT_EQ(built, (std::vector<std::string>{"madio", "madio" + at_san2,
                                             "sysio", "adoc",
                                             "sysio" + at_lan2,
                                             "adoc" + at_lan2}));

  const pc::NodeId joiner = grid.add_node_live();
  for (const sn::NetId net : {san1, san2, lan1, lan2}) {
    grid.attach_live(net, joiner);
  }
  EXPECT_EQ(names(joiner), built);

  grid.attach_live(lan2, 1);
  EXPECT_EQ(names(1), (std::vector<std::string>{"sysio", "adoc",
                                                "sysio" + at_lan2,
                                                "adoc" + at_lan2}));
}
