// The middleware personalities layer: core::CostModel pricing and
// core::CostClock charging through the Personality base, and the MPI /
// CORBA / Java-socket personalities end to end on the paper testbed.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "middleware/corba/cdr.hpp"
#include "middleware/corba/orb.hpp"
#include "middleware/javasock/jsock.hpp"
#include "middleware/mpi/mpi.hpp"
#include "middleware/personality.hpp"
#include "selector/selector.hpp"
#include "simnet/simnet.hpp"
#include "vlink/frame_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace mw = padico::middleware;
namespace vl = padico::vlink;

namespace {

void build_testbed(gr::Grid& grid, int nodes = 2) {
  grid.add_nodes(nodes);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (int i = 0; i < nodes; ++i) {
    grid.attach(san, static_cast<pc::NodeId>(i));
    grid.attach(lan, static_cast<pc::NodeId>(i));
  }
  grid.build();
}

std::string text(const pc::Bytes& b) { return std::string(b.begin(), b.end()); }

// --- Personality base: cost charging ----------------------------------------

TEST(Personality, CostModelMath) {
  pc::CostModel zero_copy{pc::microseconds(2), pc::microseconds(3), 0};
  EXPECT_EQ(zero_copy.send_cost(1 << 20), pc::microseconds(2));
  EXPECT_EQ(zero_copy.recv_cost(1 << 20), pc::microseconds(3));

  pc::CostModel copying{pc::microseconds(2), pc::microseconds(3),
                        50'000'000};  // 50 MB/s marshal pass
  // 1 MB at 50 MB/s is ~21 ms of copy on top of the fixed overhead.
  EXPECT_EQ(copying.copy_cost(50'000'000), pc::seconds(1));
  EXPECT_EQ(copying.send_cost(500'000),
            pc::microseconds(2) + pc::milliseconds(10));
}

TEST(Personality, CostClockSerializesCharges) {
  pc::CostClock clock;
  const pc::SimTime a = clock.reserve(0, pc::microseconds(5));
  const pc::SimTime b = clock.reserve(0, pc::microseconds(5));
  EXPECT_EQ(a, pc::microseconds(5));
  EXPECT_EQ(b, pc::microseconds(10));  // queued behind the first charge
  // Idle again by 30 us: the next charge starts at the now it is given.
  EXPECT_EQ(clock.reserve(pc::microseconds(30), pc::microseconds(5)),
            pc::microseconds(35));
}

TEST(Personality, BackToBackChargesTraceQueuedSpans) {
  struct Probe final : mw::Personality {
    explicit Probe(pc::Engine& engine)
        : Personality("probe",
                      {pc::microseconds(3), pc::microseconds(4), 0},
                      engine) {}
  };
  pc::Engine engine;
  engine.tracer().enable(padico::obs::kAllCats);
  Probe probe(engine);
  EXPECT_EQ(probe.charge_send(64), pc::microseconds(3));
  EXPECT_EQ(probe.charge_recv(64), pc::microseconds(7));
  // The second span starts where the first charge's CPU slice ends.
  const std::vector<padico::obs::TraceEvent> spans = engine.tracer().events();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].ts, 0u);
  EXPECT_EQ(spans[0].dur, pc::microseconds(3));
  EXPECT_EQ(spans[1].ts, pc::microseconds(3));
  EXPECT_EQ(spans[1].dur, pc::microseconds(4));
}

// --- MPI --------------------------------------------------------------------

TEST(Mpi, PingPongLatencyMatchesMpichProfile) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5100);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));
  EXPECT_EQ(c0.rank(), 0);
  EXPECT_EQ(c0.size(), 2);
  const int rounds = 16;
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto rank0 = [&]() -> pc::Task {
    pc::Bytes ping(1, 0);
    t0 = grid.engine().now();
    for (int i = 0; i < rounds; ++i) {
      c0.isend(1, 0, pc::view_of(ping));
      co_await c0.recv(1, 0);
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes pong(1, 0);
    for (int i = 0; i < rounds; ++i) {
      co_await c1.recv(0, 0);
      c1.isend(0, 0, pc::view_of(pong));
    }
  };
  auto ta = rank1();
  auto tb = rank0();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  const double one_way = pc::to_micros(t1 - t0) / (2.0 * rounds);
  // Paper Table 1: 12.06 us for MPICH-1.2.5 over Myrinet-2000.
  EXPECT_GT(one_way, 9.0);
  EXPECT_LT(one_way, 15.0);
  EXPECT_EQ(c0.seq_gaps(), 0u);
  EXPECT_EQ(c1.seq_gaps(), 0u);
  EXPECT_EQ(c1.dropped(), 0u);
  EXPECT_EQ(c1.messages_received(), static_cast<std::uint64_t>(rounds));
}

TEST(Mpi, ShortForeignFramesAreCountedDropped) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5115);
  padico::mpi::Comm c1(set.at(1));
  // A miswired sender pushes a bare 1-byte circuit message (no MPI
  // envelope) onto the communicator's circuit.
  set.at(0).send(1, pc::view_of("x"));
  grid.engine().run_until_idle();
  EXPECT_EQ(c1.dropped(), 1u);
  EXPECT_EQ(c1.messages_received(), 0u);
}

TEST(Mpi, UnexpectedMessagesQueuePerSourceAndTag) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5110);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));
  // Three sends on two tags land before any recv is posted.
  c0.isend(1, 7, pc::view_of("a"));
  c0.isend(1, 7, pc::view_of("b"));
  c0.isend(1, 9, pc::view_of("c"));
  grid.engine().run_until_idle();
  std::vector<std::string> got;
  bool done = false;
  auto prog = [&]() -> pc::Task {
    pc::Bytes m1 = co_await c1.recv(0, 7);
    pc::Bytes m2 = co_await c1.recv(0, 9);
    pc::Bytes m3 = co_await c1.recv(0, 7);
    got = {std::string(m1.begin(), m1.end()),
           std::string(m2.begin(), m2.end()),
           std::string(m3.begin(), m3.end())};
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(got, (std::vector<std::string>{"a", "c", "b"}));  // FIFO per tag
}

TEST(Mpi, SendCompletesAndSendrecvExchanges) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5120);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));
  bool done0 = false, done1 = false;
  auto rank0 = [&]() -> pc::Task {
    co_await c0.send(1, 1, pc::view_of("blocking"));
    pc::Bytes back = co_await c0.sendrecv(1, 2, pc::view_of("swap"), 1, 3);
    EXPECT_EQ(std::string(back.begin(), back.end()), "swapped");
    done0 = true;
  };
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes a = co_await c1.recv(0, 1);
    EXPECT_EQ(a.size(), 8u);
    co_await c1.recv(0, 2);
    c1.isend(0, 3, pc::view_of("swapped"));
    done1 = true;
  };
  auto ta = rank1();
  auto tb = rank0();
  grid.engine().run_while_pending([&] { return done0 && done1; });
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
}

TEST(Mpi, StreamCommOverALinkPair) {
  // The WAN fallback shape: a two-rank communicator over one connected
  // link, message boundaries carried by the envelope's length field.
  gr::Grid grid;
  build_testbed(grid);
  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().listen(
      5130, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      {1, 5130}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        if (r.ok()) a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a && b);
  padico::mpi::Comm c0(std::move(a), 0, grid.engine());
  padico::mpi::Comm c1(std::move(b), 1, grid.engine());
  EXPECT_EQ(c0.endpoint(), nullptr);
  EXPECT_EQ(c1.rank(), 1);
  EXPECT_EQ(c1.size(), 2);

  // Unexpected messages on two tags land before any recv is posted.
  c0.isend(1, 7, pc::view_of("a"));
  c0.isend(1, 7, pc::view_of("bb"));
  c0.isend(1, 9, pc::view_of("ccc"));
  grid.engine().run_until_idle();
  EXPECT_EQ(c1.messages_received(), 3u);

  std::vector<std::string> got;
  bool done0 = false, done1 = false;
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes m1 = co_await c1.recv(0, 9);
    pc::Bytes m2 = co_await c1.recv(0, 7);
    pc::Bytes m3 = co_await c1.recv(0, 7);
    got = {text(m1), text(m2), text(m3)};
    // Posted before the matching sends: tagged messages in send order.
    for (int i = 0; i < 4; ++i) {
      pc::Bytes m = co_await c1.recv(0, 4);
      got.push_back(text(m));
    }
    co_await c1.recv(0, 2);
    c1.isend(0, 3, pc::view_of("swapped"));
    done1 = true;
  };
  const std::vector<std::string> tagged = {"w", "x", "y", "z"};
  auto rank0 = [&]() -> pc::Task {
    for (const std::string& m : tagged) co_await c0.send(1, 4, pc::view_of(m));
    pc::Bytes back = co_await c0.sendrecv(1, 2, pc::view_of("swap"), 1, 3);
    EXPECT_EQ(text(back), "swapped");
    done0 = true;
  };
  auto t1 = rank1();
  auto t0 = rank0();
  grid.engine().run_while_pending([&] { return done0 && done1; });
  ASSERT_TRUE(done0 && done1);
  EXPECT_EQ(got, (std::vector<std::string>{"ccc", "a", "bb", "w", "x", "y",
                                           "z"}));  // FIFO per (source, tag)
  EXPECT_EQ(c0.messages_sent(), 8u);
  EXPECT_EQ(c1.messages_received(), 8u);
  EXPECT_EQ(c0.messages_received(), 1u);
  EXPECT_EQ(c0.seq_gaps(), 0u);
  EXPECT_EQ(c1.seq_gaps(), 0u);
}

// --- CORBA ------------------------------------------------------------------

TEST(Orb, InvokeRoundTripsArguments) {
  gr::Grid grid;
  build_testbed(grid);
  padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                          padico::orb::profiles::omniorb4(), 5200);
  server.activate("calc", [](const std::string& method,
                             std::vector<padico::orb::Any> args)
                      -> std::vector<padico::orb::Any> {
    if (method == "sum") {
      std::uint64_t sum = 0;
      for (const auto& a : args) sum += a.u64();
      return {padico::orb::Any(sum)};
    }
    return args;  // echo
  });
  server.start();
  padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::omniorb4(), 5201);
  auto ref = server.ref_of("calc");
  bool done = false;
  auto prog = [&]() -> pc::Task {
    // invoke() calls stay out of co_await full-expressions (GCC 12
    // coroutine gotcha; see DESIGN.md "Conventions").
    std::vector<padico::orb::Any> args;
    args.emplace_back(std::uint64_t{30});
    args.emplace_back(std::uint64_t{12});
    const std::string sum_m = "sum";
    auto sum_call = client.invoke(ref, sum_m, std::move(args));
    padico::orb::Reply r = co_await sum_call;
    EXPECT_EQ(r.status, pc::Status::ok);
    EXPECT_EQ(r.results.size(), 1u);
    if (r.results.size() == 1) {
      EXPECT_EQ(r.results[0].u64(), 42u);
    }

    std::vector<padico::orb::Any> echo_args;
    echo_args.emplace_back(std::string("name"));
    echo_args.emplace_back(pc::Bytes{1, 2, 3});
    const std::string echo_m = "echo";
    auto echo_call = client.invoke(ref, echo_m, std::move(echo_args));
    padico::orb::Reply e = co_await echo_call;
    EXPECT_EQ(e.status, pc::Status::ok);
    EXPECT_EQ(e.results.size(), 2u);
    if (e.results.size() == 2) {
      EXPECT_EQ(e.results[0].str(), "name");
      EXPECT_EQ(e.results[1].octets(), (pc::Bytes{1, 2, 3}));
    }
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(client.requests_sent(), 2u);
  EXPECT_EQ(server.protocol_errors(), 0u);
}

TEST(Orb, UnknownObjectAndSilentPortFail) {
  gr::Grid grid;
  build_testbed(grid);
  padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                          padico::orb::profiles::mico(), 5210);
  server.start();  // nothing activated
  padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::mico(), 5211);
  bool done = false;
  auto prog = [&]() -> pc::Task {
    const padico::orb::ObjectRef ghost = server.ref_of("ghost");
    const std::string poke_m = "poke";
    auto ghost_call = client.invoke(ghost, poke_m, {});
    padico::orb::Reply r = co_await ghost_call;
    EXPECT_EQ(r.status, pc::Status::error);  // no such object
    const padico::orb::ObjectRef nowhere{1, 5999, "void"};
    auto nowhere_call = client.invoke(nowhere, poke_m, {});
    padico::orb::Reply n = co_await nowhere_call;
    EXPECT_EQ(n.status, pc::Status::refused);  // nobody listening
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
}

TEST(Orb, DestroyedWithConnectInFlightIgnoresTheLateAccept) {
  gr::Grid grid;
  build_testbed(grid);
  padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                          padico::orb::profiles::omniorb4(), 5230);
  server.activate("sink", [](const std::string&,
                             std::vector<padico::orb::Any> args) {
    return args;
  });
  server.start();
  auto client = std::make_unique<padico::orb::Orb>(
      grid.node(0).host(), grid.node(0).vlink(),
      padico::orb::profiles::omniorb4(), 5231);
  const padico::orb::ObjectRef ref = server.ref_of("sink");
  pc::Completion<padico::orb::Reply> call = client->invoke(ref, "m", {});
  auto* drv = dynamic_cast<vl::FrameDriver*>(
      grid.node(0).vlink().driver(grid.node(0).chooser().choose(1)));
  ASSERT_NE(drv, nullptr);
  EXPECT_EQ(drv->connections(), 1u);  // the lazy connect is in flight
  client.reset();
  // The accept arrives after the ORB is gone: its callback must touch
  // nothing and just drop the link, and the queued request never leaves.
  grid.engine().run_until_idle();
  EXPECT_FALSE(call.ready());
  EXPECT_EQ(drv->connections(), 0u);
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(server.protocol_errors(), 0u);
}

TEST(Orb, ReplyWithAnUnknownStatusIsAProtocolError) {
  // A forged server answers the first request with a reply whose status
  // byte (7) names no core::Status.
  gr::Grid grid;
  build_testbed(grid);
  constexpr pc::Port kPort = 5240;
  std::unique_ptr<vl::Link> server_link;
  pc::Task forger;
  auto forge = [&](vl::Link& link) -> pc::Task {
    pc::Bytes hdr = co_await link.read_n(9);  // [u32 len][u8 kind][u32 id]
    std::uint32_t len = 0, id = 0;
    std::memcpy(&len, hdr.data(), 4);
    std::memcpy(&id, hdr.data() + 5, 4);
    pc::Bytes body = co_await link.read_n(len);
    padico::orb::CdrOut reply;
    reply.put_u32(5);  // body: u8 status, u32 argc
    reply.put_u8(1);   // kReply
    reply.put_u32(id);
    reply.put_u8(7);
    reply.put_u32(0);
    const pc::Bytes frame = reply.take();
    link.post_write(pc::view_of(frame));
  };
  grid.node(1).vlink().listen(kPort, [&](std::unique_ptr<vl::Link> l) {
    server_link = std::move(l);
    forger = forge(*server_link);
  });
  padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::omniorb4(), 5241);
  bool done = false;
  auto prog = [&]() -> pc::Task {
    const padico::orb::ObjectRef ref{1, kPort, "forged"};
    const std::string m = "m";
    std::vector<padico::orb::Any> args;
    args.emplace_back(std::uint64_t{1});
    auto call = client.invoke(ref, m, std::move(args));
    padico::orb::Reply r = co_await call;
    EXPECT_EQ(r.status, pc::Status::error);
    EXPECT_TRUE(r.results.empty());
    done = true;
  };
  auto t = prog();
  grid.engine().run_until_idle();
  EXPECT_TRUE(done);
  EXPECT_EQ(client.protocol_errors(), 1u);
}

// --- Java sockets -----------------------------------------------------------

TEST(Jsock, RoundTripWithJvmCosts) {
  gr::Grid grid;
  build_testbed(grid);
  std::shared_ptr<padico::jsock::JavaSocket> server, client;
  padico::jsock::java_server_socket(
      grid.node(1).vlink(), 5300,
      [&](std::shared_ptr<padico::jsock::JavaSocket> s) {
        server = std::move(s);
      });
  bool done = false;
  pc::SimTime t0 = 0, t1 = 0;
  auto cli = [&]() -> pc::Task {
    auto r = co_await padico::jsock::JavaSocket::connect(
        grid.node(0).vlink(), {1, 5300});
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    client = *r;
    t0 = grid.engine().now();
    co_await client->write(pc::view_of("x"));
    co_await client->read_n(1);
    t1 = grid.engine().now();
    done = true;
  };
  auto srv = [&]() -> pc::Task {
    while (!server) co_await pc::sleep_for(grid.engine(), 100);
    pc::Bytes b = co_await server->read_n(1);
    co_await server->write(pc::view_of(b));
  };
  auto t1_ = srv();
  auto t2_ = cli();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  // Paper Table 1: ~40 us one-way for Java sockets (a full JNI + copy
  // crossing per call on each side).
  const double one_way = pc::to_micros(t1 - t0) / 2.0;
  EXPECT_GT(one_way, 30.0);
  EXPECT_LT(one_way, 50.0);
  EXPECT_EQ(client->bytes_written(), 1u);
  EXPECT_EQ(client->bytes_read(), 1u);
}

TEST(Jsock, SharedJvmSerializes) {
  gr::Grid grid;
  build_testbed(grid);
  padico::jsock::Jvm jvm(grid.engine());

  std::shared_ptr<padico::jsock::JavaSocket> server, client;
  padico::jsock::java_server_socket(
      grid.node(1).vlink(), 5310,
      [&](std::shared_ptr<padico::jsock::JavaSocket> s) {
        server = std::move(s);
      });
  bool done = false;
  auto cli = [&]() -> pc::Task {
    auto r = co_await padico::jsock::JavaSocket::connect(
        grid.node(0).vlink(), {1, 5310}, &jvm);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    client = *r;
    co_await client->write(pc::view_of("hi"));
    done = true;
  };
  auto t = cli();
  grid.engine().run_while_pending([&] { return done && server; });
  EXPECT_TRUE(done);
}

// --- ORB wire image ---------------------------------------------------------

// CDR shapes appended by hand (host byte order), so the ORB's own
// marshaller is checked against bytes it did not produce.
template <typename T>
void put(pc::Bytes& b, T v) {
  std::uint8_t raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  b.insert(b.end(), raw, raw + sizeof(T));
}

void put_counted(pc::Bytes& b, pc::ByteView v) {
  put(b, static_cast<std::uint32_t>(v.size()));
  b.insert(b.end(), v.begin(), v.end());
}

// An ORB frame from the layout in orb.hpp: [u32 body length][u8 kind]
// [u32 id], then `body`.
pc::Bytes hand_frame(std::uint8_t kind, std::uint32_t id,
                     const pc::Bytes& body) {
  pc::Bytes f;
  put(f, static_cast<std::uint32_t>(body.size()));
  put(f, kind);
  put(f, id);
  f.insert(f.end(), body.begin(), body.end());
  return f;
}

// Reads one ORB frame off `link` into `out`: the header, then as many
// body bytes as it announces.
pc::Task read_frame(vl::Link& link, pc::Bytes& out) {
  out = co_await link.read_n(9);
  std::uint32_t len = 0;
  std::memcpy(&len, out.data(), sizeof(len));
  const pc::Bytes body = co_await link.read_n(len);
  out.insert(out.end(), body.begin(), body.end());
}

TEST(Orb, WireImageMatchesTheFrameLayoutForEveryProfile) {
  // An omniORB-4 and a Mico ORB put the same request and reply bytes on
  // the link: one invocation with an octets, a string and a u64.
  pc::Bytes bulk(4096);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<std::uint8_t>(i * 7);
  }
  pc::Bytes args;  // argc, then each argument behind its Any::Kind
  put(args, std::uint32_t{3});
  put(args, std::uint8_t{1});
  put_counted(args, pc::view_of(bulk));
  put(args, std::uint8_t{2});
  put_counted(args, pc::view_of("text"));
  put(args, std::uint8_t{3});
  put(args, std::uint64_t{0x0123456789abcdef});
  pc::Bytes request_body;  // object key, method, arguments
  put_counted(request_body, pc::view_of("wire"));
  put_counted(request_body, pc::view_of("echo"));
  request_body.insert(request_body.end(), args.begin(), args.end());
  pc::Bytes reply_body;  // status ok, the echoed arguments
  put(reply_body, std::uint8_t{0});
  reply_body.insert(reply_body.end(), args.begin(), args.end());

  for (const padico::orb::OrbProfile& profile :
       {padico::orb::profiles::omniorb4(), padico::orb::profiles::mico()}) {
    SCOPED_TRACE(profile.name);
    gr::Grid grid;
    build_testbed(grid);
    // Request: an ORB client invokes on a raw listener.
    std::unique_ptr<vl::Link> raw_server;
    pc::Bytes request;
    pc::Task request_reader;
    grid.node(1).vlink().listen(5250, [&](std::unique_ptr<vl::Link> l) {
      raw_server = std::move(l);
      request_reader = read_frame(*raw_server, request);
    });
    padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                            profile, 5251);
    std::vector<padico::orb::Any> call_args;
    call_args.emplace_back(bulk);
    call_args.emplace_back(std::string("text"));
    call_args.emplace_back(std::uint64_t{0x0123456789abcdef});
    const padico::orb::ObjectRef ref{1, 5250, "wire"};
    pc::Completion<padico::orb::Reply> call =
        client.invoke(ref, "echo", std::move(call_args));
    // Reply: a raw client sends a request to an ORB server.
    padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                            profile, 5260);
    server.activate("wire", [](const std::string&,
                               std::vector<padico::orb::Any> a) { return a; });
    server.start();
    std::unique_ptr<vl::Link> raw_client;
    grid.node(0).vlink().connect(
        {1, 5260}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
          if (r.ok()) raw_client = std::move(*r);
        });
    grid.engine().run_until_idle();
    EXPECT_EQ(request, hand_frame(0, 1, request_body));  // the first id
    ASSERT_NE(raw_client, nullptr);
    const pc::Bytes sent = hand_frame(0, 7, request_body);
    raw_client->post_write(pc::view_of(sent));
    pc::Bytes reply;
    pc::Task reply_reader = read_frame(*raw_client, reply);
    grid.engine().run_until_idle();
    EXPECT_EQ(reply, hand_frame(1, 7, reply_body));
  }
}

// --- CDR --------------------------------------------------------------------

TEST(Cdr, TruncatedReadsPoisonTheStream) {
  padico::orb::CdrOut out;
  out.put_u32(7);
  const pc::Bytes frame = out.take();
  padico::orb::CdrIn in(pc::view_of(frame));
  EXPECT_EQ(in.get_u32(), 7u);
  EXPECT_TRUE(in.done());
  (void)in.get_u64();  // past the end
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.get_u32(), 0u);  // sticky
  padico::orb::CdrIn counted(pc::view_of(frame));
  (void)counted.get_octets();  // length 7 > remaining 0
  EXPECT_FALSE(counted.ok());
}

}  // namespace
