// Section 5 VRP experiment reproduction: the lossy trans-continental
// Internet link.
//
// Paper: "The link exhibits a typical loss-rate of 5-10 %.  With TCP/IP
// and plain sockets, we get 150 KB/s; if we give up some reliability and
// allow up to 10 % loss with VRP, we get an average of 500 KB/s on the
// same link, ie. three times more."
//
// The reliable baseline is the SAME adapter at tolerance 0: VRP with an
// empty loss budget degenerates to a plain ARQ stream that stalls and
// backs off on every loss, exactly the TCP/plain-sockets behaviour the
// paper compares against.  (The raw "sysio" driver would just truncate
// on a lossy profile — nothing to measure.)
#include "adapters/vrp.hpp"
#include "common.hpp"

namespace {

using namespace bench;

struct VrpResult {
  double goodput_kbps = 0;
  double realized_loss = 0;
  std::uint64_t retransmissions = 0;
};

/// Transfer `total` bytes over VRP at the given loss/tolerance.
VrpResult vrp_run(double link_loss, double tolerance,
                  std::size_t total = 512 * 1024) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId net =
      grid.add_network(sn::profiles::transcontinental_internet(link_loss));
  grid.attach(net, 0);
  grid.attach(net, 1);
  gr::BuildOptions opts;
  opts.vrp.max_loss = tolerance;
  grid.build(opts);

  LinkPair p = make_link_pair(grid, "vrp", 4700);
  auto* vrp = dynamic_cast<padico::vlink::VrpLink*>(p.a.get());
  if (vrp == nullptr) {
    std::fprintf(stderr,
                 "bench_vrp_lossy: \"vrp\" connect did not yield a VrpLink\n");
    std::exit(1);
  }
  std::size_t received = 0;
  const pc::SimTime t0 = grid.engine().now();
  pc::SimTime t1 = t0;
  bool eof = false;
  p.b->set_ready_handler([&]() {
    const pc::ByteView got = p.b->read_available();
    received += got.size();
    if (!got.empty()) t1 = grid.engine().now();
    if (p.b->eof_seen()) eof = true;
  });
  pc::Bytes payload(total, 0x5a);
  p.a->post_write(pc::view_of(payload));
  p.a->post_close();
  grid.engine().run_while_pending([&] { return eof; });
  grid.engine().run_until_idle();

  VrpResult r;
  r.goodput_kbps =
      t1 > t0 ? static_cast<double>(received) / pc::to_seconds(t1 - t0) / 1e3
              : 0.0;
  r.realized_loss = vrp->realized_loss();
  r.retransmissions = vrp->retransmissions();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "vrp_lossy");
  std::printf("# Section 5 VRP reproduction: lossy trans-continental link\n\n");
  std::printf("## headline (paper: TCP 150 KB/s, VRP@10%% ~500 KB/s, ~3x)\n");
  const VrpResult reliable = vrp_run(0.07, 0.0);
  const VrpResult vrp = vrp_run(0.07, 0.10);
  const double speedup = reliable.goodput_kbps > 0
                             ? vrp.goodput_kbps / reliable.goodput_kbps
                             : 0.0;
  std::printf("reliable (tol 0%%)  : %8.1f KB/s  (%llu retransmissions)\n",
              reliable.goodput_kbps,
              static_cast<unsigned long long>(reliable.retransmissions));
  std::printf("VRP (10%% allowed)  : %8.1f KB/s  (realized loss %.1f%%, "
              "%llu retransmissions)\n",
              vrp.goodput_kbps, vrp.realized_loss * 100,
              static_cast<unsigned long long>(vrp.retransmissions));
  std::printf("speedup            : %8.2fx\n\n", speedup);
  session.metric("Reliable.goodput", "KB/s", reliable.goodput_kbps);
  session.metric("Vrp.goodput", "KB/s", vrp.goodput_kbps);
  session.metric("Vrp.speedup", "x", speedup);
  session.metric("Vrp.realized_loss", "frac", vrp.realized_loss);

  std::printf("## loss-rate sweep: reliable (tol 0%%) vs VRP (tol 10%%)\n");
  std::printf("%10s %14s %12s %14s\n", "loss", "reliable KB/s", "VRP KB/s",
              "VRP real.loss");
  for (double loss : {0.02, 0.05, 0.07, 0.10}) {
    const VrpResult rel = vrp_run(loss, 0.0);
    const VrpResult r = vrp_run(loss, 0.10);
    std::printf("%9.0f%% %14.1f %12.1f %13.1f%%\n", loss * 100,
                rel.goodput_kbps, r.goodput_kbps, r.realized_loss * 100);
    char name[64];
    std::snprintf(name, sizeof name, "Sweep.loss%02d.vrp",
                  static_cast<int>(loss * 100));
    session.metric(name, "KB/s", r.goodput_kbps);
  }

  std::printf("\n## tolerance sweep at 7%% link loss (the tunable tradeoff)\n");
  std::printf("%12s %12s %14s %8s\n", "tolerance", "VRP KB/s", "real.loss",
              "retx");
  for (double tol : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    const VrpResult r = vrp_run(0.07, tol);
    std::printf("%11.0f%% %12.1f %13.1f%% %8llu\n", tol * 100, r.goodput_kbps,
                r.realized_loss * 100,
                static_cast<unsigned long long>(r.retransmissions));
    char name[64];
    std::snprintf(name, sizeof name, "Sweep.tol%02d.vrp",
                  static_cast<int>(tol * 100));
    session.metric(name, "KB/s", r.goodput_kbps);
  }
  return 0;
}
