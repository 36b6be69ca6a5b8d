#include "vlink/vlink.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "simnet/simnet.hpp"
#include "vlink/net_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace vl = padico::vlink;

namespace {

// Minimal two-node rig wired by hand (no Grid): engine, one network,
// one Host + VLink + NetDriver per node.
struct Rig {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId net_id;
  std::unique_ptr<pc::Host> h0, h1;
  std::unique_ptr<vl::VLink> v0, v1;

  explicit Rig(const sn::LinkModel& model = sn::profiles::myrinet2000())
      : net_id(fabric.add_network(model)) {
    fabric.attach(net_id, 0);
    fabric.attach(net_id, 1);
    h0 = std::make_unique<pc::Host>(engine, 0);
    h1 = std::make_unique<pc::Host>(engine, 1);
    v0 = std::make_unique<vl::VLink>(*h0);
    v1 = std::make_unique<vl::VLink>(*h1);
    v0->add_driver(std::make_unique<vl::NetDriver>(
        *h0, fabric.network(net_id), model.driver));
    v1->add_driver(std::make_unique<vl::NetDriver>(
        *h1, fabric.network(net_id), model.driver));
  }

  std::pair<std::unique_ptr<vl::Link>, std::unique_ptr<vl::Link>> link_pair(
      const std::string& method, pc::Port port) {
    std::unique_ptr<vl::Link> a, b;
    v1->driver(method)->listen(
        port, [&b](std::unique_ptr<vl::Link> l) { b = std::move(l); });
    v0->connect(method, {1, port},
                [&a](pc::Result<std::unique_ptr<vl::Link>> r) {
                  ASSERT_TRUE(r.ok());
                  a = std::move(*r);
                });
    engine.run_while_pending([&] { return a && b; });
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    return {std::move(a), std::move(b)};
  }
};

// A Link with no transport under it: the ownership tests below hand it
// frames directly, the way a driver's receive path does.
class BareLink final : public vl::Link {
 public:
  BareLink() : vl::Link(1, 4000, 4000) {}
  using vl::Link::deliver;

 protected:
  void send_bytes(pc::ByteView) override {}
};

/// A frame carrying `payload` behind `offset` bytes of transport header.
pc::Bytes framed(std::size_t offset, std::string_view payload) {
  pc::Bytes frame(offset + payload.size(), 0xEE);
  if (!payload.empty()) {
    std::memcpy(frame.data() + offset, payload.data(), payload.size());
  }
  return frame;
}

std::string text(pc::ByteView v) {
  return std::string(v.begin(), v.end());
}

/// An immutable shared block holding `payload`.
pc::SharedBytes shared(std::string_view payload) {
  return pc::SharedBytes(pc::Bytes(payload.begin(), payload.end()));
}

vl::FrameDriver& frame_driver(vl::VLink& v, const std::string& method) {
  return *static_cast<vl::FrameDriver*>(v.driver(method));
}

/// Put a hand-made frame on the wire, as a peer (or a forger) would:
/// `type` for connection `conn_id`, from `src` to `dst`.
void inject(Rig& rig, vl::wire::FrameType type, pc::NodeId src,
            pc::NodeId dst, pc::Port src_port, pc::Port dst_port,
            std::uint64_t conn_id, pc::ByteView payload = {}) {
  const vl::wire::Header h{type, src_port, dst_port, src, conn_id};
  ASSERT_TRUE(rig.fabric.network(rig.net_id)
                  .send(src, dst, vl::wire::encode(h, payload))
                  .ok());
}

std::uint64_t counter(Rig& rig, const char* name) {
  return rig.engine.obs().counter(name).value();
}

}  // namespace

TEST(VLink, ConnectEstablishesBothEnds) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4000);
  EXPECT_EQ(a->remote_node(), 1u);
  EXPECT_EQ(b->remote_node(), 0u);
  EXPECT_EQ(a->remote_port(), 4000);
  EXPECT_EQ(b->local_port(), 4000);
  // Connection setup costs one round trip of virtual time.
  EXPECT_GT(rig.engine.now(), 0u);
  // One table entry per end while the pair lives, none once it is gone.
  vl::FrameDriver& d0 = frame_driver(*rig.v0, "madio");
  vl::FrameDriver& d1 = frame_driver(*rig.v1, "madio");
  EXPECT_EQ(d0.connections(), 1u);
  EXPECT_EQ(d1.connections(), 1u);
  a.reset();
  b.reset();
  EXPECT_EQ(d0.connections(), 0u);
  EXPECT_EQ(d1.connections(), 0u);
}

TEST(VLink, ConnectRefusedWithoutListener) {
  // Also on a per-stream-capped WAN, where every frame is paced on its
  // connection's entry: a refusal leaves no entry at either end.
  for (const sn::LinkModel& model :
       {sn::profiles::myrinet2000(), sn::profiles::vthd_wan()}) {
    Rig rig(model);
    std::optional<pc::Status> status;
    rig.v0->connect(model.driver, {1, 9999},
                    [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                      status = r.status();
                    });
    rig.engine.run_until_idle();
    EXPECT_EQ(status, pc::Status::refused) << model.name;
    EXPECT_EQ(frame_driver(*rig.v0, model.driver).connections(), 0u);
    EXPECT_EQ(frame_driver(*rig.v1, model.driver).connections(), 0u);
  }
}

TEST(VLink, AcceptorWriteIsPacedBehindTheAcceptFrame) {
  // On a per-stream-capped WAN the accept frame and the acceptor's
  // writes share one pacing horizon: a write made inside the accept
  // callback leaves only once the accept frame has cleared the stream.
  Rig rig(sn::profiles::vthd_wan());
  std::unique_ptr<vl::Link> a, b;
  rig.v1->driver("sysio")->listen(4950, [&](std::unique_ptr<vl::Link> l) {
    b = std::move(l);
    b->post_write(pc::view_of("23 bytes from acceptor!"));
  });
  std::optional<pc::SimTime> arrived;
  rig.v0->connect("sysio", {1, 4950},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    ASSERT_TRUE(r.ok());
                    a = std::move(*r);
                    a->set_ready_handler([&] {
                      if (!arrived) arrived = rig.engine.now();
                    });
                  });
  rig.engine.run_until_idle();
  ASSERT_TRUE(arrived);
  EXPECT_EQ(a->available(), 23u);
  EXPECT_EQ(*arrived, 16'023'731u);
}

TEST(VLink, RepeatedConnectFrameCannotHijackALiveConnection) {
  Rig rig;
  int accepted = 0;
  std::unique_ptr<vl::Link> a, b;
  rig.v1->driver("madio")->listen(4960, [&](std::unique_ptr<vl::Link> l) {
    ++accepted;
    if (!b) b = std::move(l);
  });
  rig.v0->connect("madio", {1, 4960},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    ASSERT_TRUE(r.ok());
                    a = std::move(*r);
                  });
  rig.engine.run_until_idle();
  ASSERT_TRUE(a && b);
  // Node 0's first connection id is (0 << 40) | 1: easy to guess.  A
  // forged connect frame carrying it is dropped and counted.
  vl::FrameDriver& d1 = frame_driver(*rig.v1, "madio");
  inject(rig, vl::wire::FrameType::connect, 0, 1, 49152, 4960, 1);
  rig.engine.run_until_idle();
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(d1.malformed_frames(), 1u);
  EXPECT_EQ(d1.connections(), 1u);
  // The live link still receives.
  a->post_write(pc::view_of("still mine"));
  rig.engine.run_until_idle();
  EXPECT_EQ(text(b->read_available()), "still mine");
}

TEST(VLink, StrayAcceptOrRefuseForALiveIdChangesNothing) {
  Rig rig;
  int connected = 0;
  std::unique_ptr<vl::Link> a, b;
  rig.v1->driver("madio")->listen(
      4970, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  rig.v0->connect("madio", {1, 4970},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    ++connected;
                    if (r.ok()) a = std::move(*r);
                  });
  rig.engine.run_until_idle();
  ASSERT_TRUE(a && b);
  for (const vl::wire::FrameType type :
       {vl::wire::FrameType::accept, vl::wire::FrameType::refuse}) {
    inject(rig, type, 1, 0, 4970, 49152, 1);  // to the connector
    inject(rig, type, 0, 1, 49152, 4970, 1);  // to the acceptor
  }
  rig.engine.run_until_idle();
  EXPECT_EQ(connected, 1);
  EXPECT_EQ(frame_driver(*rig.v0, "madio").connections(), 1u);
  EXPECT_EQ(frame_driver(*rig.v1, "madio").connections(), 1u);
  b->post_write(pc::view_of("pong"));
  a->post_write(pc::view_of("ping"));
  rig.engine.run_until_idle();
  EXPECT_EQ(text(a->read_available()), "pong");
  EXPECT_EQ(text(b->read_available()), "ping");
}

TEST(VLink, FramesFromAThirdNodeChangeNothing) {
  // Connection ids are easy to guess (node 0's first is 1), so only a
  // connection's peer may answer its connect or feed its link.  Node 2
  // forges frames for connection 1 from the same network.
  Rig rig;
  rig.fabric.attach(rig.net_id, 2);
  vl::FrameDriver& d0 = frame_driver(*rig.v0, "madio");
  vl::FrameDriver& d1 = frame_driver(*rig.v1, "madio");
  std::unique_ptr<vl::Link> a, b;
  rig.v1->driver("madio")->listen(
      4980, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  int calls = 0;
  std::optional<pc::Status> status;
  rig.v0->connect("madio", {1, 4980},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    ++calls;
                    status = r.status();
                    if (r.ok()) a = std::move(*r);
                  });
  // A forged refuse and a forged accept overtake the real accept.
  inject(rig, vl::wire::FrameType::refuse, 2, 0, 4980, 49152, 1);
  inject(rig, vl::wire::FrameType::accept, 2, 0, 4980, 49152, 1);
  rig.engine.run_while_pending([&] { return d0.malformed_frames() == 2; });
  EXPECT_EQ(d0.malformed_frames(), 2u);
  EXPECT_EQ(calls, 0);  // neither failed nor completed the connect
  EXPECT_EQ(d0.connections(), 1u);
  rig.engine.run_until_idle();
  ASSERT_EQ(calls, 1);  // the real accept still completes it
  EXPECT_EQ(status, pc::Status::ok);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->remote_node(), 1u);
  EXPECT_EQ(a->remote_port(), 4980);

  // Forged data for the live connection reaches neither end.
  inject(rig, vl::wire::FrameType::data, 2, 1, 49152, 4980, 1,
         pc::view_of("forged"));
  inject(rig, vl::wire::FrameType::data, 2, 0, 4980, 49152, 1,
         pc::view_of("forged"));
  rig.engine.run_until_idle();
  EXPECT_EQ(b->available(), 0u);
  EXPECT_EQ(a->available(), 0u);
  EXPECT_EQ(d0.malformed_frames(), 3u);
  EXPECT_EQ(d1.malformed_frames(), 1u);
  a->post_write(pc::view_of("real"));
  rig.engine.run_until_idle();
  EXPECT_EQ(text(b->read_available()), "real");
}

TEST(VLink, ConnectionIndexSurvivesGrowthAndEveryEraseOrder) {
  // 1,200 connections on one driver pair: each end's index doubles
  // from 8 to 2,048 slots.  Closing every third and then the rest in
  // reverse erases slots in many orders; every remaining link must
  // still be found by its id at both ends.
  constexpr int kLinks = 1200;
  Rig rig;
  vl::FrameDriver& d0 = frame_driver(*rig.v0, "madio");
  vl::FrameDriver& d1 = frame_driver(*rig.v1, "madio");
  // Server ends by the client's (unique) ephemeral port; each echoes.
  std::map<pc::Port, std::unique_ptr<vl::Link>> servers;
  rig.v1->driver("madio")->listen(4990, [&](std::unique_ptr<vl::Link> l) {
    vl::Link* raw = l.get();
    raw->set_ready_handler([raw] {
      const pc::Bytes got = raw->read_available().to_bytes();
      if (!got.empty()) raw->post_write(pc::view_of(got));
    });
    servers.emplace(raw->remote_port(), std::move(l));
  });
  std::vector<std::unique_ptr<vl::Link>> clients(kLinks);
  std::vector<std::string> echoed(kLinks);
  for (int i = 0; i < kLinks; ++i) {
    rig.v0->connect("madio", {1, 4990},
                    [&, i](pc::Result<std::unique_ptr<vl::Link>> r) {
                      ASSERT_TRUE(r.ok());
                      clients[i] = std::move(*r);
                      vl::Link* raw = clients[i].get();
                      raw->set_ready_handler([raw, &echoed, i] {
                        echoed[i] += text(raw->read_available());
                      });
                    });
  }
  rig.engine.run_until_idle();
  ASSERT_EQ(servers.size(), static_cast<std::size_t>(kLinks));

  const auto check = [&](std::size_t live) {
    EXPECT_EQ(d0.connections(), live);
    EXPECT_EQ(d1.connections(), live);
    EXPECT_EQ(servers.size(), live);
    for (int i = 0; i < kLinks; ++i) {
      echoed[i].clear();
      if (clients[i]) clients[i]->post_write(pc::view_of(std::to_string(i)));
    }
    rig.engine.run_until_idle();
    for (int i = 0; i < kLinks; ++i) {
      if (clients[i]) {
        EXPECT_EQ(echoed[i], std::to_string(i)) << i;
      }
    }
  };
  const auto close = [&](int i) {
    servers.erase(clients[i]->local_port());
    clients[i].reset();
  };

  std::size_t live = kLinks;
  check(live);
  for (int i = 0; i < kLinks; i += 3, --live) close(i);
  check(live);
  for (int i = kLinks - 1; i >= 0; --i) {
    if (!clients[i]) continue;
    close(i);
    if (--live == kLinks / 3) check(live);  // once halfway through
  }
  check(0);
}

TEST(VLink, DriverDestroyedWithConnectsInFlight) {
  // The driver owns each link whose connect is in flight.  Destroying
  // it deletes them with their callbacks unrun; the server's accepts
  // then land on a node with no driver and are dropped.
  Rig rig;
  int accepted = 0;
  std::vector<std::unique_ptr<vl::Link>> servers;
  rig.v1->driver("madio")->listen(4995, [&](std::unique_ptr<vl::Link> l) {
    ++accepted;
    servers.push_back(std::move(l));
  });
  const auto token = std::make_shared<int>(0);
  int called = 0;
  for (int i = 0; i < 20; ++i) {
    rig.v0->connect("madio", {1, 4995},
                    [&called, token](pc::Result<std::unique_ptr<vl::Link>>) {
                      ++called;
                    });
  }
  EXPECT_EQ(frame_driver(*rig.v0, "madio").connections(), 20u);
  EXPECT_EQ(token.use_count(), 21);
  const std::uint64_t dropped_before =
      rig.fabric.network(rig.net_id).messages_dropped();
  rig.v0.reset();
  EXPECT_EQ(token.use_count(), 1);  // every callback was destroyed
  rig.engine.run_until_idle();
  EXPECT_EQ(called, 0);
  EXPECT_EQ(accepted, 20);
  EXPECT_EQ(rig.fabric.network(rig.net_id).messages_dropped(),
            dropped_before + 20);
}

TEST(VLink, DriverCountersTallyEveryDataFrame) {
  // Traffic totals live in the engine's registry, counted by the
  // drivers: data frames and their payload bytes, no control frames.
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4998);
  EXPECT_EQ(counter(rig, "vlink.tx.frames"), 0u);
  EXPECT_EQ(counter(rig, "vlink.rx.frames"), 0u);
  a->post_write(pc::view_of("ping"));
  const pc::Bytes eight{1, 2, 3, 'p', 'o', 'n', 'g', '!'};
  b->post_write(pc::view_of(eight));
  rig.engine.run_until_idle();
  EXPECT_EQ(a->available(), 8u);
  EXPECT_EQ(b->available(), 4u);
  EXPECT_EQ(counter(rig, "vlink.tx.frames"), 2u);
  EXPECT_EQ(counter(rig, "vlink.tx.bytes"), 12u);
  EXPECT_EQ(counter(rig, "vlink.rx.frames"), 2u);
  EXPECT_EQ(counter(rig, "vlink.rx.bytes"), 12u);
}

TEST(VLink, ConnectUnknownMethodFails) {
  Rig rig;
  std::optional<pc::Status> status;
  rig.v0->connect("warp-drive", {1, 1},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  EXPECT_EQ(status, pc::Status::error);  // immediate, no events needed
}

TEST(VLink, ConnectUnattachedNodeUnreachable) {
  Rig rig;
  std::optional<pc::Status> status;
  rig.v0->connect("madio", {5, 1},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  EXPECT_EQ(status, pc::Status::unreachable);
}

TEST(VLink, EchoPingPong) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4100);

  bool done = false;
  pc::Bytes echoed;
  auto client = [&]() -> pc::Task {
    a->post_write(pc::view_of("ping"));
    echoed = co_await a->read_n(4);
    done = true;
  };
  auto server = [&]() -> pc::Task {
    pc::Bytes req = co_await b->read_n(4);
    EXPECT_EQ(req, pc::view_of("ping").to_bytes());
    b->post_write(pc::view_of(req));
  };
  auto ts = server();
  auto tc = client();
  rig.engine.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
  EXPECT_EQ(echoed, pc::view_of("ping").to_bytes());
}

TEST(VLink, ReadReassemblesAcrossWrites) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4200);

  bool done = false;
  auto reader = [&]() -> pc::Task {
    // 3 writes of 100 bytes; read 250 then 50: reassembly must split
    // and join wire messages transparently.
    pc::Bytes first = co_await b->read_n(250);
    EXPECT_EQ(first.size(), 250u);
    EXPECT_EQ(first[0], 0);
    EXPECT_EQ(first[249], 2);
    pc::Bytes rest = co_await b->read_n(50);
    EXPECT_EQ(rest.size(), 50u);
    EXPECT_EQ(rest[49], 2);
    done = true;
  };
  auto t = reader();
  for (std::uint8_t i = 0; i < 3; ++i) {
    pc::Bytes chunk(100, i);
    a->post_write(pc::view_of(chunk));
  }
  rig.engine.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
}

TEST(VLink, ReadCompletesImmediatelyWhenBuffered) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4300);
  a->post_write(pc::view_of("abcdef"));
  rig.engine.run_until_idle();  // data arrives before anyone reads
  EXPECT_EQ(b->available(), 6u);

  bool done = false;
  auto reader = [&]() -> pc::Task {
    pc::Bytes x = co_await b->read_n(6);  // already buffered: no suspend
    EXPECT_EQ(x.size(), 6u);
    done = true;
  };
  auto t = reader();
  EXPECT_TRUE(done);  // completed synchronously
}

TEST(VLink, LinkMayOutliveDriver) {
  std::unique_ptr<vl::Link> a, b;
  {
    Rig rig;
    std::tie(a, b) = rig.link_pair("madio", 4500);
  }  // engine, network and drivers all destroyed; links still held
  a->post_write(pc::view_of("into the void"));  // dropped, must not crash
  EXPECT_EQ(a->remote_node(), 1u);
  a.reset();
  b.reset();
}

// ---------------------------------------------------------------------------
// Repeated opens: revisits, detaches, refusals and alternating listeners
// ---------------------------------------------------------------------------

TEST(VLink, RevisitedPairConnectsAgainAndAgain) {
  // Every revisit of one (peer, port) pays the same one-RTT handshake.
  Rig rig;
  auto [a1, b1] = rig.link_pair("madio", 4600);
  const pc::SimTime first_rtt = rig.engine.now();
  auto [a2, b2] = rig.link_pair("madio", 4600);
  EXPECT_EQ(rig.engine.now(), 2 * first_rtt);
  EXPECT_EQ(a2->remote_node(), 1u);
  EXPECT_EQ(b2->remote_node(), 0u);
}

TEST(VLink, DetachMakesARevisitFailSynchronously) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4650);
  // Once the server node detaches, a revisit fails the reachability
  // precheck synchronously instead of firing a frame into a network
  // that no longer knows the node.
  rig.fabric.network(rig.net_id).detach(1);
  std::optional<pc::Status> status;
  rig.v0->connect("madio", {1, 4650},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  EXPECT_EQ(status, pc::Status::unreachable);
}

TEST(VLink, RefusedRevisitIsRefusedEveryTime) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4700);
  rig.v1->driver("madio")->unlisten(4700);
  // A pair that accepted before is refused once the listener is gone,
  // and a second attempt gets the same answer.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::optional<pc::Status> status;
    rig.v0->connect("madio", {1, 4700},
                    [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                      status = r.status();
                    });
    rig.engine.run_until_idle();
    EXPECT_EQ(status, pc::Status::refused);
  }
}

TEST(VLink, AlternatingPortsReachTheirOwnAcceptors) {
  // Two live listeners on one driver: a connect must never be routed
  // to the other port's acceptor.
  Rig rig;
  int on_a = 0, on_b = 0;
  rig.v1->driver("madio")->listen(
      4800, [&](std::unique_ptr<vl::Link>) { ++on_a; });
  rig.v1->driver("madio")->listen(
      4801, [&](std::unique_ptr<vl::Link>) { ++on_b; });
  for (int round = 0; round < 3; ++round) {
    for (pc::Port port : {pc::Port{4800}, pc::Port{4801}}) {
      bool ok = false;
      rig.v0->connect("madio", {1, port},
                      [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                        ok = r.ok();
                      });
      rig.engine.run_until_idle();
      EXPECT_TRUE(ok);
    }
  }
  EXPECT_EQ(on_a, 3);
  EXPECT_EQ(on_b, 3);
}

TEST(VLink, ListenReachesDriversRegisteredAfterTheListenCall) {
  // Regression: a listen() used to be forwarded only to the drivers
  // registered at the time of the call, so a late-registered driver
  // silently never accepted.  Listens are sticky now.
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
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(san), "madio"));

  int accepted = 0;
  v1.listen(5500, [&](std::unique_ptr<vl::Link>) { ++accepted; });
  // The LAN driver registers only after the server started listening.
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(lan), "sysio"));

  std::unique_ptr<vl::Link> via_lan;
  v0.connect("sysio", {1, 5500}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    via_lan = std::move(*r);
  });
  engine.run_until_idle();
  EXPECT_TRUE(via_lan);
  EXPECT_EQ(accepted, 1);

  // unlisten() forgets the sticky registration too: a driver added
  // afterwards must not accept.
  v1.unlisten(5500);
  std::optional<pc::Status> status;
  v0.connect("sysio", {1, 5500}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    status = r.status();
  });
  engine.run_until_idle();
  EXPECT_EQ(status, pc::Status::refused);
}

TEST(VLink, VLinkListenAcceptsOnAllDrivers) {
  // Node with two networks: a listen() via VLink must accept from both.
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
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(san), "madio"));
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(lan), "sysio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(san), "madio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(lan), "sysio"));

  int accepted = 0;
  v1.listen(5000, [&](std::unique_ptr<vl::Link>) { ++accepted; });

  std::unique_ptr<vl::Link> via_san, via_lan;
  v0.connect("madio", {1, 5000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok());
    via_san = std::move(*r);
  });
  v0.connect("sysio", {1, 5000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok());
    via_lan = std::move(*r);
  });
  engine.run_until_idle();
  EXPECT_TRUE(via_san);
  EXPECT_TRUE(via_lan);
  EXPECT_EQ(accepted, 2);
}

TEST(LinkOwnership, DrainedLinkAdoptsTheDeliveredFrame) {
  BareLink link;
  pc::Bytes first = framed(24, "payload");
  const std::uint8_t* first_payload = first.data() + 24;
  link.deliver(std::move(first), 24);
  const pc::ByteView got = link.read_available();
  EXPECT_EQ(got.data(), first_payload);  // adopted, not copied
  EXPECT_EQ(text(got), "payload");

  // Drained again: the next frame is adopted too, and the storage it
  // displaced — the first frame — comes back for recycling.
  pc::Bytes second = framed(24, "next");
  const std::uint8_t* second_payload = second.data() + 24;
  const pc::Bytes displaced = link.deliver(std::move(second), 24);
  EXPECT_EQ(displaced.data() + 24, first_payload);
  EXPECT_EQ(link.read_available().data(), second_payload);
}

TEST(LinkOwnership, FrameConsumedByTheReadyHandlerComesStraightBack) {
  BareLink link;
  const std::uint8_t* seen_at = nullptr;
  std::string seen;
  link.set_ready_handler([&] {
    const pc::ByteView v = link.read_available();
    seen_at = v.data();
    seen = text(v);
  });
  pc::Bytes frame = framed(24, "abc");
  const std::uint8_t* storage = frame.data();
  const pc::Bytes back = link.deliver(std::move(frame), 24);
  EXPECT_EQ(seen, "abc");
  EXPECT_EQ(seen_at, storage + 24);  // read in place
  EXPECT_EQ(back.data(), storage);   // drained: the link keeps nothing
  EXPECT_EQ(link.available(), 0u);
  EXPECT_TRUE(link.read_available().empty());
}

TEST(LinkOwnership, DeliveryWhileBufferedAppendsInOrder) {
  BareLink link;
  link.deliver(framed(8, "abc"), 8);  // adopted, left unread
  pc::Bytes second = framed(4, "defg");
  const std::uint8_t* second_storage = second.data();
  const pc::Bytes back = link.deliver(std::move(second), 4);
  EXPECT_EQ(back.data(), second_storage);  // copied in; the frame returns
  EXPECT_EQ(link.available(), 7u);
  EXPECT_EQ(text(link.read_available()), "abcdefg");
}

TEST(LinkOwnership, QueuedReadsCompleteFifoAcrossAdoptedAndAppendedFrames) {
  BareLink link;
  std::vector<std::string> got;
  auto reader = [&](std::size_t n) -> pc::Task {
    pc::Bytes b = co_await link.read_n(n);
    got.emplace_back(b.begin(), b.end());
  };
  auto r1 = reader(3);
  auto r2 = reader(5);
  auto r3 = reader(2);
  EXPECT_TRUE(got.empty());

  link.deliver(framed(24, "abcd"), 24);  // adopted; serves the first read
  EXPECT_EQ(got, (std::vector<std::string>{"abc"}));
  link.deliver(framed(24, "efghij"), 24);  // appended behind the "d"
  EXPECT_EQ(got, (std::vector<std::string>{"abc", "defgh", "ij"}));
  EXPECT_EQ(link.available(), 0u);

  link.deliver(framed(24, "kl"), 24);  // drained again: adopted
  auto r4 = reader(2);                 // buffered: completes at once
  EXPECT_EQ(got, (std::vector<std::string>{"abc", "defgh", "ij", "kl"}));
}

TEST(LinkOwnership, DatagramModeHandsOverExactlyThePayload) {
  BareLink link;
  std::vector<std::string> seen;
  const std::uint8_t* seen_at = nullptr;
  link.set_datagram_handler([&](pc::ByteView v) {
    seen.push_back(text(v));
    seen_at = v.data();
  });
  pc::Bytes frame = framed(24, "hello");
  const std::uint8_t* storage = frame.data();
  const pc::Bytes back = link.deliver(std::move(frame), 24);
  EXPECT_EQ(seen, (std::vector<std::string>{"hello"}));
  EXPECT_EQ(seen_at, storage + 24);
  EXPECT_EQ(back.data(), storage);  // the link keeps nothing
  EXPECT_EQ(link.available(), 0u);
}

TEST(LinkOwnership, EmptyLinkYieldsAnEmptyView) {
  BareLink link;
  EXPECT_TRUE(link.read_available().empty());
  link.deliver(framed(24, "x"), 24);
  EXPECT_EQ(text(link.read_available()), "x");
  EXPECT_TRUE(link.read_available().empty());  // drained by the first read
}

TEST(LinkOwnership, DrainedLinkReadsATailInPlace) {
  BareLink link;
  const pc::SharedBytes block = shared("zero-copy");
  const std::uint8_t* seen_at = nullptr;
  std::string seen;
  link.set_ready_handler([&] {
    const pc::ByteView v = link.read_available();
    seen_at = v.data();
    seen = text(v);
  });
  pc::Bytes head = framed(24, "");
  const std::uint8_t* head_storage = head.data();
  const pc::Bytes back = link.deliver(std::move(head), 24, block);
  EXPECT_EQ(seen, "zero-copy");
  EXPECT_EQ(seen_at, block.data());     // the block itself, not a copy
  EXPECT_EQ(back.data(), head_storage);  // the bare header comes back
}

TEST(LinkOwnership, NoReferenceOutlivesTheTailTheReadyHandlerConsumed) {
  BareLink link;
  const pc::SharedBytes block = shared("abc");
  std::size_t refs_in_handler = 0;
  link.set_ready_handler([&] {
    refs_in_handler = block.use_count();
    link.read_available();
  });
  link.deliver(framed(24, ""), 24, block);
  EXPECT_EQ(refs_in_handler, 2u);  // the link held it while reading
  EXPECT_EQ(block.use_count(), 1u);
  EXPECT_EQ(link.available(), 0u);

  // A read that consumes the tail drops it at once too.
  BareLink other;
  other.deliver(framed(24, ""), 24, block);
  EXPECT_EQ(block.use_count(), 2u);  // unread: held by reference
  std::string got;
  auto reader = [&]() -> pc::Task {
    pc::Bytes b = co_await other.read_n(3);
    got = text(pc::view_of(b));
  };
  auto t = reader();
  EXPECT_EQ(got, "abc");
  EXPECT_EQ(block.use_count(), 1u);
}

TEST(LinkOwnership, LaggingReaderGetsTailBytesAheadOfTheNextFrame) {
  BareLink link;
  const pc::SharedBytes block = shared("abcdef");
  link.deliver(framed(24, ""), 24, block);
  std::string first;
  auto reader = [&]() -> pc::Task {
    pc::Bytes b = co_await link.read_n(2);
    first = text(pc::view_of(b));
  };
  auto t = reader();
  EXPECT_EQ(first, "ab");
  EXPECT_EQ(link.available(), 4u);
  EXPECT_EQ(block.use_count(), 2u);

  // An owned frame behind the unread tail bytes: they are copied out,
  // the reference goes, and FIFO order holds.
  pc::Bytes next = framed(24, "gh");
  const std::uint8_t* next_storage = next.data();
  const pc::Bytes back = link.deliver(std::move(next), 24);
  EXPECT_EQ(back.data(), next_storage);  // appended; the frame returns
  EXPECT_EQ(block.use_count(), 1u);
  EXPECT_EQ(text(link.read_available()), "cdefgh");
}

TEST(LinkOwnership, ReadNReadsAcrossATailAndAnOwnedFrame) {
  BareLink link;
  std::vector<std::string> got;
  auto reader = [&](std::size_t n) -> pc::Task {
    pc::Bytes b = co_await link.read_n(n);
    got.emplace_back(b.begin(), b.end());
  };
  auto r1 = reader(4);
  auto r2 = reader(6);
  const pc::SharedBytes block = shared("abc");
  link.deliver(framed(24, ""), 24, block);  // too short for the first read
  EXPECT_TRUE(got.empty());
  link.deliver(framed(24, "defghij"), 24);
  EXPECT_EQ(got, (std::vector<std::string>{"abcd", "efghij"}));
  EXPECT_EQ(block.use_count(), 1u);

  // The other order: a tail behind unread owned bytes is appended.
  link.deliver(framed(24, "kl"), 24);
  link.deliver(framed(24, ""), 24, shared("mno"));
  auto r3 = reader(5);
  EXPECT_EQ(got.back(), "klmno");
  EXPECT_EQ(link.available(), 0u);
}

TEST(LinkOwnership, DatagramModeSeesTheTailFlattened) {
  BareLink link;
  std::vector<std::string> seen;
  link.set_datagram_handler([&](pc::ByteView v) { seen.push_back(text(v)); });
  const pc::SharedBytes block = shared("lo");
  link.deliver(framed(24, "hel"), 24, block);
  link.deliver(framed(24, ""), 24, block);
  EXPECT_EQ(seen, (std::vector<std::string>{"hello", "lo"}));
  EXPECT_EQ(block.use_count(), 1u);
  EXPECT_EQ(link.available(), 0u);
}

TEST(LinkOwnership, RandomMixOfTailsAndFramesKeepsTheStreamInOrder) {
  // Owned frames, bare heads with tails and heads carrying both, read
  // through queued read_n calls, read_available and (every other
  // trial) a ready handler: the reader sees exactly the bytes sent, in
  // order.  A view read_available() returned outside a delivery keeps
  // its tail alive until the next delivery, which drops it.
  pc::Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    BareLink link;
    std::string sent, got;
    std::vector<pc::SharedBytes> blocks;
    std::vector<pc::Task> reads;
    std::size_t queued = 0;  // read_n calls not yet completed
    auto reader = [&](std::size_t n) -> pc::Task {
      pc::Bytes b = co_await link.read_n(n);
      got += text(pc::view_of(b));
      --queued;
    };
    auto next = [&](std::size_t max) {
      std::string bytes(rng.uniform_int(1, max), ' ');
      for (char& c : bytes) {
        c = static_cast<char>('a' + sent.size() % 26);
        sent += c;
      }
      return bytes;
    };
    if (trial % 2 == 1) {
      link.set_ready_handler([&] {
        if (rng.uniform() < 0.5) got += text(link.read_available());
      });
    }
    for (int op = 0; op < 40; ++op) {
      switch (rng.uniform_int(0, 4)) {
        case 0:
          link.deliver(framed(24, next(40)), 24);
          break;
        case 1:
          blocks.push_back(shared(next(40)));
          link.deliver(framed(24, ""), 24, blocks.back());
          break;
        case 2: {
          const std::string head = next(20);
          blocks.push_back(shared(next(20)));
          link.deliver(framed(24, head), 24, blocks.back());
          break;
        }
        case 3:
          ++queued;
          reads.push_back(reader(rng.uniform_int(1, 60)));
          break;
        default:
          if (queued == 0) got += text(link.read_available());
          break;
      }
    }
    while (queued > 0) link.deliver(framed(24, next(60)), 24);
    got += text(link.read_available());
    ASSERT_EQ(got, sent) << "trial " << trial;
    link.deliver(framed(24, ""), 24);
    for (const pc::SharedBytes& b : blocks) {
      ASSERT_EQ(b.use_count(), 1u) << "trial " << trial;
    }
  }
}

TEST(LinkOwnership, TheTailHandleDoesNotGrowTheLink) {
#if defined(__GLIBCXX__) && defined(__x86_64__)
  // A FrameLink must stay in its 208 B malloc chunk.
  EXPECT_EQ(sizeof(vl::Link), 144u);
#else
  GTEST_SKIP() << "size pinned for libstdc++ on x86-64 only";
#endif
}

TEST(VLink, SharedWriteIsReadInPlaceWhenACopiedWriteWouldArrive) {
  // The same 64 KiB reply posted twice, copied on one rig and shared
  // on a twin: the reader sees the same bytes at the same instants, and
  // the shared ones in the writer's own block.  On the WAN the second
  // write is paced behind the first (NetDriver's paced closure).
  const std::string reply(64 * 1024, 'r');
  auto run = [&](const sn::LinkModel& model, bool share) {
    Rig rig(model);
    auto [a, b] = rig.link_pair("sysio", 4100);
    const pc::SharedBytes block = shared(reply);
    std::vector<pc::SimTime> at;
    std::string got;
    bool in_place = true;
    b->set_ready_handler([&] {
      const pc::ByteView v = b->read_available();
      at.push_back(rig.engine.now());
      in_place = in_place && v.data() == block.data();
      got += text(v);
    });
    for (int i = 0; i < 2; ++i) {
      if (share) {
        a->post_write(block);
      } else {
        a->post_write(pc::view_of(reply));
      }
    }
    rig.engine.run_until_idle();
    EXPECT_EQ(got, reply + reply);
    EXPECT_EQ(in_place, share);
    EXPECT_EQ(block.use_count(), 1u);  // nothing holds it any more
    EXPECT_EQ(counter(rig, "vlink.tx.bytes"), 2 * reply.size());
    EXPECT_EQ(counter(rig, "vlink.rx.bytes"), 2 * reply.size());
    return at;
  };
  for (const sn::LinkModel& model :
       {sn::profiles::ethernet100(), sn::profiles::vthd_wan()}) {
    const std::vector<pc::SimTime> copied = run(model, false);
    EXPECT_EQ(copied.size(), 2u) << model.name;
    EXPECT_EQ(run(model, true), copied) << model.name;
  }
}
