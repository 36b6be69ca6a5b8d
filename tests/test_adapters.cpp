// The adapter layer: padico::compress codecs, the VRP loss-tolerant
// retransmit/give-up FSM, the AdOC adaptive compression controller,
// and the rendezvous contract every adapter (pstream included)
// inherits from vlink::AdapterDriver — all driven end-to-end through
// Grid-built topologies on the deterministic engine, so every loss
// pattern and every controller decision is reproducible.
#include "adapters/adoc.hpp"
#include "adapters/vrp.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "compress/lz.hpp"
#include "core/core.hpp"
#include "grid/grid.hpp"
#include "simnet/simnet.hpp"
#include "vlink/pstream_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace cz = padico::compress;

namespace {

pc::Bytes text_payload(std::size_t n) {
  pc::Bytes b;
  const std::string w = "deterministic grid middleware state vector dump ";
  while (b.size() < n) b.insert(b.end(), w.begin(), w.end());
  b.resize(n);
  return b;
}

pc::Bytes random_payload(std::size_t n, std::uint64_t seed = 7) {
  pc::Rng rng(seed);
  pc::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

pc::Bytes pattern_payload(std::size_t n) {
  pc::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  return b;
}

struct Pair {
  gr::Grid grid;
  std::unique_ptr<vl::Link> a, b;

  Pair(const sn::LinkModel& model, double max_loss) {
    grid.add_nodes(2);
    sn::NetId net = grid.add_network(model);
    grid.attach(net, 0);
    grid.attach(net, 1);
    gr::BuildOptions opts;
    opts.vrp.max_loss = max_loss;
    grid.build(opts);
  }

  void connect(const std::string& method, pc::Port port) {
    ASSERT_NE(grid.node(1).vlink().driver(method), nullptr) << method;
    grid.node(1).vlink().driver(method)->listen(
        port, [this](std::unique_ptr<vl::Link> l) { b = std::move(l); });
    grid.node(0).vlink().connect(
        method, {1, port}, [this](pc::Result<std::unique_ptr<vl::Link>> r) {
          ASSERT_TRUE(r.ok()) << r.error().message;
          a = std::move(*r);
        });
    grid.engine().run_while_pending([this] { return a && b; });
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
  }
};

/// Stream-transfer `payload` a -> b with close, collecting whatever
/// the receiver resolves until eof.
pc::Bytes transfer(Pair& p, const pc::Bytes& payload) {
  pc::Bytes got;
  bool eof = false;
  p.b->set_ready_handler([&] {
    const pc::ByteView chunk = p.b->read_available();
    got.insert(got.end(), chunk.begin(), chunk.end());
    if (p.b->eof_seen()) eof = true;
  });
  p.a->post_write(pc::view_of(payload));
  p.a->post_close();
  p.grid.engine().run_while_pending([&] { return eof; });
  p.grid.engine().run_until_idle();
  EXPECT_TRUE(eof) << "transfer never resolved to eof";
  return got;
}

}  // namespace

// ---------------------------------------------------------------------------
// padico::compress
// ---------------------------------------------------------------------------

TEST(Compress, RleAndLzRoundTripAllShapes) {
  for (const pc::Bytes& data :
       {pc::Bytes{}, pc::Bytes(1, 0x42), pc::Bytes(4096, 0),
        text_payload(10000), random_payload(10000), pattern_payload(257)}) {
    const pc::Bytes rle = cz::rle_encode(pc::view_of(data));
    auto rle_back = cz::rle_decode(pc::view_of(rle));
    ASSERT_TRUE(rle_back.has_value());
    EXPECT_EQ(*rle_back, data);
    const pc::Bytes lz = cz::lz_encode(pc::view_of(data));
    auto lz_back = cz::lz_decode(pc::view_of(lz));
    ASSERT_TRUE(lz_back.has_value());
    EXPECT_EQ(*lz_back, data);
  }
}

TEST(Compress, RoundTripAllLevels) {
  const pc::Bytes data = text_payload(20000);
  for (std::uint8_t l = 0; l < cz::kLevelCount; ++l) {
    const auto level = static_cast<cz::Level>(l);
    const pc::Bytes enc = cz::encode(level, pc::view_of(data));
    auto back = cz::decode(level, pc::view_of(enc));
    ASSERT_TRUE(back.has_value()) << "level " << int{l};
    EXPECT_EQ(*back, data);
  }
  // Compressible text must actually compress under lz.
  EXPECT_LT(cz::encode(cz::Level::lz, pc::view_of(data)).size(), data.size());
}

TEST(Compress, GarbageIsRejected) {
  // A level no codec has decodes nothing.
  const pc::Bytes text = text_payload(500);
  EXPECT_FALSE(
      cz::decode(static_cast<cz::Level>(99), pc::view_of(text)).has_value());
  // Fuzzed LZ streams must decode to nullopt or valid bytes, never
  // crash or read out of bounds (ASan-checked in CI).
  pc::Rng rng(0xfeedf00d);
  for (int i = 0; i < 2000; ++i) {
    pc::Bytes junk(rng.uniform_int(0, 96), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)cz::lz_decode(pc::view_of(junk));
    (void)cz::rle_decode(pc::view_of(junk));
  }
}

TEST(Compress, CostModelOrdersLevelsByCpuWork) {
  const std::size_t n = 1 << 20;
  EXPECT_LT(cz::encode_cost(cz::Level::stored, n),
            cz::encode_cost(cz::Level::rle, n));
  EXPECT_LT(cz::encode_cost(cz::Level::rle, n),
            cz::encode_cost(cz::Level::lz, n));
  // Decoding is cheaper than encoding for the real codecs.
  EXPECT_LT(cz::decode_cost(cz::Level::lz, n),
            cz::encode_cost(cz::Level::lz, n));
  EXPECT_GT(cz::encode_cost(cz::Level::stored, 0), pc::Duration{0});
}

// ---------------------------------------------------------------------------
// VRP
// ---------------------------------------------------------------------------

TEST(Vrp, ZeroLossDeliversExactlyWithNoRetransmissions) {
  // loss_rate must be > 0 for Grid::build to stack a vrp driver at
  // all; 1e-12 registers the adapter while no frame ever actually
  // drops (the run is deterministic: verified loss-free once, always).
  Pair p(sn::profiles::transcontinental_internet(1e-12), 0.0);
  p.connect("vrp", 4000);
  const pc::Bytes payload = pattern_payload(96 * 1024);
  const pc::Bytes got = transfer(p, payload);
  EXPECT_EQ(got, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  EXPECT_EQ(vrp->retransmissions(), 0u);
  EXPECT_EQ(vrp->give_ups(), 0u);
  EXPECT_DOUBLE_EQ(vrp->realized_loss(), 0.0);
}

TEST(Vrp, ToleranceZeroRepairsEveryLoss) {
  // The reliable-ARQ degenerate case: 7 % frame loss, empty budget —
  // every byte must arrive, in order, repaired by retransmission.
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.0);
  p.connect("vrp", 4001);
  const pc::Bytes payload = pattern_payload(128 * 1024);
  const pc::Bytes got = transfer(p, payload);
  EXPECT_EQ(got, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  EXPECT_GT(vrp->retransmissions(), 0u);  // loss must have bitten
  EXPECT_DOUBLE_EQ(vrp->realized_loss(), 0.0);
  auto* peer = dynamic_cast<vl::VrpLink*>(p.b.get());
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->give_ups(), 0u);
}

TEST(Vrp, TolerantRunStaysWithinBudgetAndSkipsInsteadOfStalling) {
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.10);
  p.connect("vrp", 4002);
  const pc::Bytes payload = pattern_payload(256 * 1024);
  const pc::Bytes got = transfer(p, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  auto* peer = dynamic_cast<vl::VrpLink*>(p.b.get());
  ASSERT_NE(vrp, nullptr);
  ASSERT_NE(peer, nullptr);
  // Losses are absorbed, not repaired: bytes go missing, the stream
  // never stalls, and delivered + skipped resolves the whole payload.
  EXPECT_GT(peer->give_ups(), 0u);
  EXPECT_GT(peer->skipped_bytes(), 0u);
  EXPECT_EQ(got.size() + peer->skipped_bytes(), payload.size());
  // The budget is an invariant, not a target.
  EXPECT_LE(vrp->realized_loss(), 0.10 + 1e-9);
  EXPECT_GT(vrp->realized_loss(), 0.0);
}

TEST(Vrp, SurvivesHeavyAckLoss) {
  // 30 % frame loss hits data, acks, nacks, hello and fin alike; with
  // an empty budget everything must still be repaired eventually.
  Pair p(sn::profiles::transcontinental_internet(0.30), 0.0);
  p.connect("vrp", 4003);
  const pc::Bytes payload = pattern_payload(48 * 1024);
  const pc::Bytes got = transfer(p, payload);
  EXPECT_EQ(got, payload);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  EXPECT_GT(vrp->retransmissions(), 0u);
}

TEST(Vrp, AimdWindowReactsToLoss) {
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.0);
  p.connect("vrp", 4004);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  const double cwnd0 = vrp->cwnd();
  (void)transfer(p, pattern_payload(128 * 1024));
  // The window moved (loss cuts + additive increase both happened) and
  // stayed inside its clamp.
  EXPECT_NE(vrp->cwnd(), cwnd0);
  EXPECT_GE(vrp->cwnd(), 4.0);
  EXPECT_LE(vrp->cwnd(), 48.0);
}

TEST(Vrp, DestroyingLinksMidRetransmitIsSafe) {
  // Kill both ends while frames, RTO timers and nacks are in flight;
  // pending timers must bail on their liveness tokens (ASan-checked).
  Pair p(sn::profiles::transcontinental_internet(0.30), 0.0);
  p.connect("vrp", 4005);
  const pc::Bytes payload = pattern_payload(64 * 1024);
  p.a->post_write(pc::view_of(payload));
  p.a->post_close();
  bool cut = false;
  p.grid.engine().schedule_after(pc::milliseconds(300), [&] { cut = true; });
  p.grid.engine().run_while_pending([&] { return cut; });
  p.a.reset();
  p.b.reset();
  p.grid.engine().run_until_idle();  // drains orphaned timers quietly
}

TEST(Vrp, PeerLeavingMidTransferStopsTheRetransmitTimers) {
  // Once the peer node detaches, no ack or fin confirmation can ever
  // arrive.  The RTO and fin timers must give up after a bounded number
  // of resends so the engine drains instead of re-arming forever.
  Pair p(sn::profiles::transcontinental_internet(0.07), 0.0);
  p.connect("vrp", 4006);
  auto* vrp = dynamic_cast<vl::VrpLink*>(p.a.get());
  ASSERT_NE(vrp, nullptr);
  const pc::Bytes payload = pattern_payload(64 * 1024);
  p.a->post_write(pc::view_of(payload));
  p.a->post_close();
  bool cut = false;
  p.grid.engine().schedule_after(pc::milliseconds(300), [&] { cut = true; });
  p.grid.engine().run_while_pending([&] { return cut; });
  p.grid.remove_node_live(1);
  const std::uint64_t retx_at_leave = vrp->retransmissions();

  // Bounded virtual horizon: a timer that never stops fails here
  // instead of hanging the suite.
  const pc::SimTime horizon = p.grid.engine().now() + pc::seconds(3600);
  p.grid.engine().run_while_pending(
      [&] { return p.grid.engine().now() > horizon; });
  ASSERT_FALSE(p.grid.engine().pending());  // run_until_idle() returned
  // At most a window of frames plus the fin, each capped at 32 resends.
  EXPECT_GT(vrp->retransmissions(), retx_at_leave);
  EXPECT_LE(vrp->retransmissions() - retx_at_leave, (48u + 1u) * 32u);
  EXPECT_FALSE(p.b->eof_seen());
}

TEST(Vrp, ConnectToUnlistenedPortIsRefusedNotHung) {
  // The base driver refuses outright (nobody on the rendezvous port);
  // vrp must propagate the refusal instead of retrying forever.
  Pair p(sn::profiles::transcontinental_internet(0.05), 0.0);
  std::optional<pc::Status> status;
  p.grid.node(0).vlink().connect(
      "vrp", {1, 4999}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_FALSE(r.ok());
        status = r.status();
      });
  p.grid.engine().run_while_pending([&] { return status.has_value(); });
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, pc::Status::refused);
}

// ---------------------------------------------------------------------------
// AdOC
// ---------------------------------------------------------------------------

TEST(Adoc, DeliversExactBytesAndAccountsCompression) {
  Pair p(sn::profiles::ethernet100(), 0.0);
  p.connect("adoc", 5000);
  const pc::Bytes payload = text_payload(64 * 1024);
  pc::Bytes got;
  bool done = false;
  auto server = [&]() -> pc::Task {
    got = co_await p.b->read_n(payload.size() * 4);
    done = true;
  };
  auto t = server();
  for (int i = 0; i < 4; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  ASSERT_EQ(got.size(), payload.size() * 4);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], payload[i % payload.size()]) << "at byte " << i;
  }
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  EXPECT_EQ(adoc->raw_bytes_sent(), payload.size() * 4);
  EXPECT_LT(adoc->compress_ratio(), 1.0);  // text must have compressed
  EXPECT_LT(adoc->wire_bytes_sent(), adoc->raw_bytes_sent());
}

TEST(Adoc, ControllerPicksLzForTextOnASlowLink) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5001);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  const pc::Bytes payload = text_payload(32 * 1024);
  for (int i = 0; i < 4; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::lz);
  EXPECT_LT(adoc->compress_ratio(), 0.5);
}

TEST(Adoc, ControllerPicksStoredForIncompressibleData) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5002);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  const pc::Bytes payload = random_payload(32 * 1024);
  for (int i = 0; i < 4; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::stored);
  // Stored frames pay only the header: the ratio stays ~1.
  EXPECT_LT(adoc->compress_ratio(), 1.01);
  EXPECT_GT(adoc->compress_ratio(), 0.99);
}

TEST(Adoc, PinLevelFreezesTheController) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5003);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  adoc->pin_level(cz::Level::stored);
  const pc::Bytes payload = text_payload(32 * 1024);  // would pick lz
  for (int i = 0; i < 3; ++i) p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::stored);
  EXPECT_GT(adoc->compress_ratio(), 0.99);
  // Unpinning re-enables adaptation on the next frame.
  adoc->unpin_level();
  p.a->post_write(pc::view_of(payload));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::lz);
  EXPECT_GT(adoc->level_switches(), 0u);
}

TEST(Adoc, ControllerSwitchesLevelMidStream) {
  Pair p(sn::profiles::transcontinental_internet(0.0), 0.0);
  p.connect("adoc", 5004);
  auto* adoc = dynamic_cast<vl::AdocLink*>(p.a.get());
  ASSERT_NE(adoc, nullptr);
  const pc::Bytes text = text_payload(32 * 1024);
  const pc::Bytes noise = random_payload(32 * 1024);
  for (int i = 0; i < 2; ++i) p.a->post_write(pc::view_of(text));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::lz);
  // The per-level ratio is an EWMA (0.75/0.25): one noise frame can't
  // undo the text-learned lz estimate, but a sustained run of
  // incompressible frames drags it past break-even and the controller
  // drops back to stored.
  for (int i = 0; i < 12; ++i) p.a->post_write(pc::view_of(noise));
  p.grid.engine().run_until_idle();
  EXPECT_EQ(adoc->last_level(), cz::Level::stored);
  EXPECT_GE(adoc->level_switches(), 1u);
}

// ---------------------------------------------------------------------------
// Adapter contract: the rendezvous rules every adapter inherits from
// vlink::AdapterDriver, checked on pstream, vrp and adoc alike.
// ---------------------------------------------------------------------------

namespace {

struct AdapterCase {
  const char* method;
  sn::LinkModel (*model)();
  pc::Port (*sub_port)(pc::Port);
};

class AdapterContract : public testing::TestWithParam<AdapterCase> {
 protected:
  static constexpr pc::Port kPort = 6000;

  AdapterContract() : p_(GetParam().model(), 0.0) {}

  vl::AdapterDriver* adapter(pc::NodeId n) {
    return dynamic_cast<vl::AdapterDriver*>(
        p_.grid.node(n).vlink().driver(GetParam().method));
  }
  pc::Port rendezvous() const { return GetParam().sub_port(kPort); }

  Pair p_;
};

void sink(std::unique_ptr<vl::Link>) {}

}  // namespace

TEST_P(AdapterContract, BaseFirstListenOnRendezvousPortThrows) {
  vl::AdapterDriver* drv = adapter(1);
  ASSERT_NE(drv, nullptr);
  drv->base().listen(rendezvous(), sink);
  EXPECT_THROW(drv->listen(kPort, sink), std::logic_error);
  EXPECT_FALSE(drv->listening(kPort));
}

TEST_P(AdapterContract, VLinkListenCannotTakeOverTheRendezvousPort) {
  vl::AdapterDriver* drv = adapter(1);
  ASSERT_NE(drv, nullptr);
  drv->listen(kPort,
              [&](std::unique_ptr<vl::Link> l) { p_.b = std::move(l); });
  bool stolen = false;
  EXPECT_THROW(p_.grid.node(1).vlink().listen(
                   rendezvous(),
                   [&](std::unique_ptr<vl::Link>) { stolen = true; }),
               std::logic_error);
  p_.grid.node(0).vlink().connect(
      GetParam().method, {1, kPort},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        p_.a = std::move(*r);
      });
  p_.grid.engine().run_while_pending([&] { return p_.a && p_.b; });
  EXPECT_TRUE(p_.a && p_.b);
  EXPECT_FALSE(stolen);
}

TEST_P(AdapterContract, RelistenReplacesHandlerAndUnlistenReleasesBasePort) {
  vl::AdapterDriver* drv = adapter(1);
  ASSERT_NE(drv, nullptr);
  bool first_fired = false;
  drv->listen(kPort, [&](std::unique_ptr<vl::Link>) { first_fired = true; });
  p_.connect(GetParam().method, kPort);  // re-listens, then connects
  EXPECT_FALSE(first_fired);
  drv->unlisten(kPort);
  EXPECT_FALSE(drv->listening(kPort));
  EXPECT_FALSE(drv->base().listening(rendezvous()));
  // A port the adapter never claimed stays the base driver's business.
  drv->base().listen(rendezvous(), sink);
  drv->unlisten(kPort);
  EXPECT_TRUE(drv->base().listening(rendezvous()));
}

TEST_P(AdapterContract, GarbageHelloIsCountedAndARealConnectStillWorks) {
  vl::AdapterDriver* drv = adapter(1);
  vl::AdapterDriver* client = adapter(0);
  ASSERT_NE(drv, nullptr);
  ASSERT_NE(client, nullptr);
  bool accepted = false;
  drv->listen(kPort, [&](std::unique_ptr<vl::Link>) { accepted = true; });
  std::unique_ptr<vl::Link> raw;
  client->base().connect({1, rendezvous()},
                         [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                           ASSERT_TRUE(r.ok()) << r.error().message;
                           raw = std::move(*r);
                         });
  p_.grid.engine().run_while_pending([&] { return raw != nullptr; });
  ASSERT_TRUE(raw);
  pc::Bytes junk = random_payload(24, 0x5eed0014);
  junk[0] = 0xff;  // never any adapter's magic
  raw->post_write(pc::view_of(junk));
  p_.grid.engine().run_until_idle();
  EXPECT_EQ(drv->malformed_hellos(), 1u);
  EXPECT_FALSE(accepted);
  p_.connect(GetParam().method, kPort);
}

TEST_P(AdapterContract, UnreachablePeerFailsBeforeConnectReturns) {
  vl::AdapterDriver* drv = adapter(0);
  ASSERT_NE(drv, nullptr);
  ASSERT_FALSE(drv->base().reaches(0));  // self: no base path
  std::optional<pc::Status> status;
  drv->connect({0, kPort}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    status = r.status();
  });
  EXPECT_EQ(status, pc::Status::unreachable);
}

INSTANTIATE_TEST_SUITE_P(
    Adapters, AdapterContract,
    testing::Values(
        AdapterCase{"pstream", [] { return sn::profiles::vthd_wan(); },
                    vl::pstream::sub_port},
        AdapterCase{"vrp",
                    [] {
                      return sn::profiles::transcontinental_internet(0.001);
                    },
                    vl::vrp::sub_port},
        AdapterCase{"adoc", [] { return sn::profiles::ethernet100(); },
                    vl::adoc::sub_port}),
    [](const testing::TestParamInfo<AdapterCase>& info) {
      return std::string(info.param.method);
    });
