// selector::Chooser coverage: classification on the paper's
// topologies, ranking (including the WAN override), path security,
// decision caching + invalidation, and the SelectionPolicy plumbing
// through VLink::connect.
#include "selector/selector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/core.hpp"
#include "obs/registry.hpp"
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

TEST(Selector, DecisionsAreCachedAndInvalidated) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  // build() itself touches the chooser (set_wan_method seeding) but
  // makes no decisions; start from the post-build state.
  const std::uint64_t base_lookups = ch.lookups();
  EXPECT_EQ(ch.cache_size(), 0u);
  ch.classify(2);
  ch.choose(2);
  ch.path_secure(2);
  EXPECT_EQ(ch.lookups() - base_lookups, 3u);
  EXPECT_EQ(ch.hits(), 2u);  // one miss, then cache hits
  EXPECT_EQ(ch.cache_size(), 1u);

  // The WAN override changes wan-class decisions: cache must drop.
  ch.set_wan_method("pstream");
  EXPECT_EQ(ch.cache_size(), 0u);
  EXPECT_EQ(ch.choose(2), "pstream");

  // Registry growth invalidates too (a better driver may now exist).
  EXPECT_EQ(ch.cache_size(), 1u);
  auto extra = std::make_unique<vl::NetDriver>(
      grid.node(0).host(), grid.fabric().network(2), "sysio2");
  extra->set_net_class(sel::NetClass::wan);
  grid.node(0).vlink().add_driver(std::move(extra));
  EXPECT_EQ(ch.cache_size(), 0u);
}

TEST(Selector, TargetedInvalidationDropsOnlyThatDestination) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  ch.choose(1);
  ch.choose(2);
  ch.choose(3);
  EXPECT_EQ(ch.cache_size(), 3u);
  const std::uint64_t ev_before = ch.evictions();

  ch.invalidate(2);
  EXPECT_EQ(ch.cache_size(), 2u);
  EXPECT_EQ(ch.evictions(), ev_before + 1);
  // Idempotent: a miss evicts nothing.
  ch.invalidate(2);
  EXPECT_EQ(ch.evictions(), ev_before + 1);

  // The surviving entries still hit; the dropped one recomputes.
  const std::uint64_t hits_before = ch.hits();
  EXPECT_EQ(ch.choose(1), "madio");
  EXPECT_EQ(ch.hits(), hits_before + 1);
  EXPECT_EQ(ch.choose(2), "sysio");
  EXPECT_EQ(ch.hits(), hits_before + 1);  // recomputed, not served stale
  EXPECT_EQ(ch.cache_size(), 3u);
}

TEST(Selector, CachedAnswersMatchAFreshChooserThroughChurn) {
  // Differential guard for the decision cache: after every topology
  // change, each answer node 0's (cached) chooser gives must equal the
  // answer of a chooser built from scratch over the same VLink.
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  const auto answer = [](sel::Chooser& c, pc::NodeId dst) {
    std::string method;
    try {
      method = c.choose(dst);
    } catch (const std::runtime_error&) {
      method = "<unreachable>";
    }
    return std::tuple{method, c.classify(dst), c.path_secure(dst)};
  };
  const auto expect_fresh_answers = [&](const char* stage) {
    sel::Chooser fresh(grid.node(0).vlink());
    fresh.set_wan_method(ch.wan_method());
    // Two passes: the first may recompute, the second is served from
    // the cache and must still agree.
    for (int pass = 0; pass < 2; ++pass) {
      for (pc::NodeId dst = 0; dst < 4; ++dst) {
        EXPECT_EQ(answer(ch, dst), answer(fresh, dst))
            << stage << ", pass " << pass << ", dst " << dst;
      }
    }
  };

  expect_fresh_answers("warm");
  const std::uint64_t hits_before = ch.hits();
  grid.fabric().network(2).detach(2);  // node 2 leaves the WAN
  expect_fresh_answers("detach");
  grid.fabric().network(0).set_up(false);  // sanA goes dark
  expect_fresh_answers("set_up(false)");
  grid.fabric().network(2).set_model(
      sn::profiles::transcontinental_internet(0.07));
  expect_fresh_answers("set_model");
  EXPECT_GT(ch.hits(), hits_before);  // cached answers were compared
}

TEST(Selector, CacheCountersArePublished) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  ch.choose(2);
  ch.choose(2);
  ch.invalidate();
  const padico::obs::Registry& reg = grid.engine().obs();
  const auto* hits = reg.find_counter("selector.cache.hits");
  const auto* misses = reg.find_counter("selector.cache.misses");
  const auto* evictions = reg.find_counter("selector.cache.evictions");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(evictions, nullptr);
  // Counters are engine-wide (all four choosers merge into the same
  // slots), so exact values belong to the accessor tests above; here
  // the registered slots must have seen this chooser's traffic.
  EXPECT_GE(hits->value(), 1u);
  EXPECT_GE(misses->value(), 1u);
  EXPECT_GE(evictions->value(), 1u);
}

TEST(Selector, NodeRemovalInvalidatesOnlyTheVictim) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  ch.choose(1);
  ch.choose(2);
  ch.choose(3);
  EXPECT_EQ(ch.cache_size(), 3u);

  // Live removal detaches node 3 everywhere: every chooser drops its
  // entry for dst 3 — and ONLY that entry.
  grid.remove_node_live(3);
  EXPECT_EQ(ch.cache_size(), 2u);
  const std::uint64_t hits_before = ch.hits();
  ch.choose(1);
  ch.choose(2);
  EXPECT_EQ(ch.hits(), hits_before + 2);  // survivors still cached
  EXPECT_THROW(ch.choose(3), std::runtime_error);  // recomputed fresh
}

TEST(Selector, LinkChurnInvalidatesAttachedChoosersOnly) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch0 = grid.node(0).chooser();  // attached to sanA + wan
  sel::Chooser& ch2 = grid.node(2).chooser();  // attached to sanB + wan
  ch0.choose(1);
  ch0.choose(2);
  ch2.choose(3);
  ch2.choose(0);
  EXPECT_EQ(ch0.cache_size(), 2u);
  EXPECT_EQ(ch2.cache_size(), 2u);

  // Admin-down of sanA (network 0): only choosers of nodes attached
  // to it (0 and 1) flush; node 2's cache is untouched.
  grid.fabric().network(0).set_up(false);
  EXPECT_EQ(ch0.cache_size(), 0u);
  EXPECT_EQ(ch2.cache_size(), 2u);
  // Re-raising the link flushes again; a no-op set_up does nothing.
  ch0.choose(1);
  grid.fabric().network(0).set_up(true);
  EXPECT_EQ(ch0.cache_size(), 0u);
  ch0.choose(1);
  grid.fabric().network(0).set_up(true);  // already up: no flush
  EXPECT_EQ(ch0.cache_size(), 1u);

  // A model swap on the WAN (network 2) touches everyone.
  grid.fabric().network(2).set_model(sn::profiles::transcontinental_internet(0.07));
  EXPECT_EQ(ch0.cache_size(), 0u);
  EXPECT_EQ(ch2.cache_size(), 0u);
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
