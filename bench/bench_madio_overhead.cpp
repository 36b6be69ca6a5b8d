// Section 4.1 reproduction: "We actually measure that the overhead of
// MadIO over plain Madeleine is less than 0.1 us which is imperceptible
// on most current networks."
//
// Measures one-way latency of (a) plain Madeleine, (b) MadIO with header
// combining, (c) MadIO without combining — the naive multiplexing whose
// header travels as its own hardware message.
//
// A final full-stack section runs a Java-socket ping-pong through a
// built Grid (personality CPU charge -> vlink -> madio driver ->
// arbitration pump), so a run under --trace=FILE / PADICO_TRACE yields
// a Chrome trace with spans from every layer of the stack.
#include "common.hpp"
#include "drivers/san_driver.hpp"
#include "madeleine/madeleine.hpp"
#include "net/arbitration.hpp"
#include "net/madio.hpp"

namespace {

using namespace bench;
namespace dr = padico::drv;
namespace md = padico::mad;
namespace net = padico::net;

struct Stack {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  std::unique_ptr<pc::Host> h0, h1;
  std::unique_ptr<dr::SanDriver> d0, d1;
  std::unique_ptr<md::Madeleine> m0, m1;
  net::Arbitration a0{engine}, a1{engine};

  Stack() {
    sn::NetId san = fabric.add_network(sn::profiles::myrinet2000());
    fabric.attach(san, 0);
    fabric.attach(san, 1);
    h0 = std::make_unique<pc::Host>(engine, 0);
    h1 = std::make_unique<pc::Host>(engine, 1);
    d0 = std::make_unique<dr::SanDriver>(*h0, fabric, san);
    d1 = std::make_unique<dr::SanDriver>(*h1, fabric, san);
    m0 = std::make_unique<md::Madeleine>(*h0, *d0);
    m1 = std::make_unique<md::Madeleine>(*h1, *d1);
  }
};

/// One-way latency of plain Madeleine (ping-pong, payload 4 B).
double plain_madeleine_us(int rounds = 64) {
  Stack s;
  auto ct = s.m0->open_channel();
  auto cr = s.m1->open_channel();
  int pongs = 0;
  pc::SimTime t0 = s.engine.now(), t1 = 0;
  s.m1->set_recv_handler(*cr, [&](pc::NodeId, md::UnpackHandle&) {
    md::PackHandle h = s.m1->begin_packing(*cr, 0);
    h.pack(pc::view_of("pong"), md::SendMode::safer);
    s.m1->end_packing(std::move(h));
  });
  s.m0->set_recv_handler(*ct, [&](pc::NodeId, md::UnpackHandle&) {
    if (++pongs < rounds) {
      md::PackHandle h = s.m0->begin_packing(*ct, 1);
      h.pack(pc::view_of("ping"), md::SendMode::safer);
      s.m0->end_packing(std::move(h));
    } else {
      t1 = s.engine.now();
    }
  });
  md::PackHandle h = s.m0->begin_packing(*ct, 1);
  h.pack(pc::view_of("ping"), md::SendMode::safer);
  s.m0->end_packing(std::move(h));
  s.engine.run_until_idle();
  return pc::to_micros(t1 - t0) / (2.0 * rounds);
}

/// One-way latency through MadIO (combining on/off).
double madio_us(bool combining, int rounds = 64) {
  Stack s;
  net::MadIO io0(s.a0, *s.m0, combining);
  net::MadIO io1(s.a1, *s.m1, combining);
  io0.open_logical(1);
  io1.open_logical(1);
  int pongs = 0;
  pc::SimTime t0 = s.engine.now(), t1 = 0;
  auto send = [](net::MadIO& io, pc::NodeId dst) {
    md::PackHandle h = io.begin(1, dst);
    h.pack(pc::view_of("ping"), md::SendMode::safer);
    io.end(std::move(h));
  };
  io1.set_handler(1, [&](pc::NodeId, md::UnpackHandle&) { send(io1, 0); });
  io0.set_handler(1, [&](pc::NodeId, md::UnpackHandle&) {
    if (++pongs < rounds) {
      send(io0, 1);
    } else {
      t1 = s.engine.now();
    }
  });
  send(io0, 1);
  s.engine.run_until_idle();
  return pc::to_micros(t1 - t0) / (2.0 * rounds);
}

}  // namespace

int main(int argc, char** argv) {
  Session session(argc, argv, "madio_overhead");
  std::printf("# Section 4.1: MadIO multiplexing overhead over plain "
              "Madeleine (paper: < 0.1 us with header combining)\n\n");
  const double plain = plain_madeleine_us();
  const double combined = madio_us(true);
  const double uncombined = madio_us(false);
  std::printf("%-34s %10.3f us\n", "plain Madeleine one-way", plain);
  std::printf("%-34s %10.3f us  (overhead %+.3f us)\n",
              "MadIO, headers combined", combined, combined - plain);
  std::printf("%-34s %10.3f us  (overhead %+.3f us)\n",
              "MadIO, naive (separate header msg)", uncombined,
              uncombined - plain);
  session.metric("plain_madeleine.latency", "us", plain);
  session.metric("madio_combined.latency", "us", combined);
  session.metric("madio_naive.latency", "us", uncombined);
  std::printf("\n# combining keeps the overhead to the header's wire time "
              "plus one poll\n# (~0.15 us here; the paper reports <0.1 us of "
              "software overhead on real\n# hardware); the naive scheme pays "
              "a full extra per-message cost.\n");

  // Full-stack reference: Java-socket ping-pong over the built Grid.
  // On the testbed the chooser routes the vlink over the madio driver,
  // so one round trip crosses personality (JVM CPU charge), vlink
  // framing, madio multiplexing and the arbitration pump — all four
  // show up as categories in a --trace capture.
  {
    gr::Grid grid;
    attach_testbed(grid);
    grid.build();
    JsockPair p = make_jsock_pair(grid, 3600);
    Run lat = jsock_latency_run(grid, p, 16);
    std::printf("\n%-34s %10.3f us  (full stack: personality/vlink/"
                "madio/arbitration)\n",
                "Java-socket one-way, full grid", lat.value);
    session.metric("jsock_fullstack.latency", "us", lat);
  }
  return 0;
}
