// The NetAccess/MadIO arbitration layer: SAN driver cost model and
// rendezvous, Madeleine channels, MadIO tag multiplexing, the
// header-combining code paths, and the SysIO/MadIO arbitration pump.
#include "net/madio.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "drivers/san_driver.hpp"
#include "grid/grid.hpp"
#include "madeleine/madeleine.hpp"
#include "net/arbitration.hpp"
#include "net/madio_driver.hpp"
#include "net/seqbook.hpp"
#include "simnet/simnet.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace dr = padico::drv;
namespace md = padico::mad;
namespace net = padico::net;

namespace {

// The full stack on a two-node Myrinet, wired by hand (no Grid).
struct Stack {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san;
  std::unique_ptr<pc::Host> h0, h1;
  std::unique_ptr<dr::SanDriver> d0, d1;
  std::unique_ptr<md::Madeleine> m0, m1;
  net::Arbitration a0{engine}, a1{engine};
  std::unique_ptr<net::MadIO> io0, io1;

  explicit Stack(bool combining = true)
      : san(fabric.add_network(sn::profiles::myrinet2000())) {
    fabric.attach(san, 0);
    fabric.attach(san, 1);
    h0 = std::make_unique<pc::Host>(engine, 0);
    h1 = std::make_unique<pc::Host>(engine, 1);
    d0 = std::make_unique<dr::SanDriver>(*h0, fabric, san);
    d1 = std::make_unique<dr::SanDriver>(*h1, fabric, san);
    m0 = std::make_unique<md::Madeleine>(*h0, *d0);
    m1 = std::make_unique<md::Madeleine>(*h1, *d1);
    io0 = std::make_unique<net::MadIO>(a0, *m0, combining);
    io1 = std::make_unique<net::MadIO>(a1, *m1, combining);
  }

};

}  // namespace

// ---------------------------------------------------------------------------
// SanDriver
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kHead = dr::SanDriver::kFrameHeader;

std::string to_text(pc::ByteView v) { return std::string(v.begin(), v.end()); }

/// A SAN frame: the driver's headroom, then `payload` bytes of `fill`.
pc::Bytes san_frame(std::size_t payload, std::uint8_t fill = 0) {
  return pc::Bytes(kHead + payload, fill);
}

/// `n` SAN drivers on one Myrinet, wired by hand.
struct SanNodes {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san;
  std::vector<std::unique_ptr<pc::Host>> hosts;
  std::vector<std::unique_ptr<dr::SanDriver>> drivers;

  explicit SanNodes(pc::NodeId n)
      : san(fabric.add_network(sn::profiles::myrinet2000())) {
    for (pc::NodeId i = 0; i < n; ++i) {
      fabric.attach(san, i);
      hosts.push_back(std::make_unique<pc::Host>(engine, i));
      drivers.push_back(
          std::make_unique<dr::SanDriver>(*hosts.back(), fabric, san));
    }
  }

  dr::SanDriver& operator[](std::size_t i) { return *drivers[i]; }
};

}  // namespace

TEST(SanDriver, EagerDeliveryPaysInjectionAndWireCosts) {
  Stack s;
  pc::SimTime arrival = 0;
  pc::Bytes got;
  s.d1->set_receiver([&](pc::NodeId src, pc::Bytes frame, std::size_t off,
                         pc::SharedBytes) {
    EXPECT_EQ(src, 0u);
    arrival = s.engine.now();
    got.assign(frame.begin() + static_cast<std::ptrdiff_t>(off), frame.end());
  });
  s.d0->send(1, san_frame(16, 0x42));
  s.engine.run_until_idle();

  ASSERT_EQ(got.size(), 16u);
  EXPECT_EQ(got[0], 0x42);
  EXPECT_EQ(s.d0->eager_sent(), 1u);
  // One-way = injection (per-message + per-byte) + tx + 7 us latency.
  EXPECT_GT(pc::to_micros(arrival), 7.5);
  EXPECT_LT(pc::to_micros(arrival), 9.0);
}

TEST(SanDriver, BackToBackSendsSerialiseOnTheHostCpu) {
  Stack s;
  std::vector<pc::SimTime> arrivals;
  s.d1->set_receiver([&](pc::NodeId, pc::Bytes, std::size_t,
                         pc::SharedBytes) {
    arrivals.push_back(s.engine.now());
  });
  for (int i = 0; i < 4; ++i) s.d0->send(1, san_frame(8, 1));
  s.engine.run_until_idle();

  ASSERT_EQ(arrivals.size(), 4u);
  // Injection cost spaces the messages at least per_message apart.
  const pc::Duration gap = arrivals[1] - arrivals[0];
  EXPECT_GE(gap, dr::SanDriver::kPerMessage);
  for (std::size_t i = 2; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], gap);
  }
}

TEST(SanDriver, LargeMessagesRendezvous) {
  Stack s;
  const std::size_t big = dr::SanDriver::kEagerThreshold + 1;
  pc::SimTime small_arrival = 0, big_arrival = 0;
  std::vector<std::size_t> order;
  s.d1->set_receiver([&](pc::NodeId, pc::Bytes frame, std::size_t off,
                         pc::SharedBytes) {
    const std::size_t n = frame.size() - off;
    order.push_back(n);
    (n == big ? big_arrival : small_arrival) = s.engine.now();
  });
  const std::uint64_t before = s.fabric.network(s.san).messages_sent();
  s.d0->send(1, san_frame(big, 0x99));
  s.d0->send(1, san_frame(4, 0x01));  // must NOT overtake the big one
  s.engine.run_until_idle();

  EXPECT_EQ(s.d0->rendezvous_sent(), 1u);
  EXPECT_EQ(s.d0->eager_sent(), 1u);
  // REQ + ACK + DATA + the eager message = 4 wire messages.
  EXPECT_EQ(s.fabric.network(s.san).messages_sent() - before, 4u);
  // FIFO across the eager / rendezvous boundary.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], big);
  EXPECT_EQ(order[1], 4u);
  EXPECT_GT(big_arrival, pc::microseconds(21));  // REQ + ACK + data wire trips
  EXPECT_GT(small_arrival, big_arrival);
}

TEST(SanDriver, FramesPassThroughInOneBuffer) {
  // The buffer handed to send() is the one the receiver gets: the
  // driver stamps its header into the headroom and copies nothing.  The
  // odd capacity tells the buffer apart from a copy that the allocator
  // happened to place at the freed original's address.
  Stack s;
  const std::string payload = "one buffer end to end";
  pc::Bytes frame;
  frame.reserve(1000);
  frame.resize(kHead + payload.size());
  std::memcpy(frame.data() + kHead, payload.data(), payload.size());
  const std::uint8_t* sent = frame.data();
  bool same_buffer = false;
  std::size_t offset = 0;
  std::string got;
  s.d1->set_receiver([&](pc::NodeId, pc::Bytes f, std::size_t off,
                         pc::SharedBytes) {
    same_buffer = f.data() == sent && f.capacity() == 1000;
    offset = off;
    got.assign(f.begin() + static_cast<std::ptrdiff_t>(off), f.end());
  });
  s.d0->send(1, std::move(frame));
  s.engine.run_until_idle();
  EXPECT_TRUE(same_buffer);
  EXPECT_EQ(offset, kHead);
  EXPECT_EQ(got, payload);
}

TEST(SanDriver, RejectsFramesWithoutHeadroom) {
  Stack s;
  EXPECT_THROW(s.d0->send(1, pc::Bytes(kHead - 1)), std::invalid_argument);
  EXPECT_THROW(s.d0->send(1, pc::Bytes{}), std::invalid_argument);
  s.d0->send(1, pc::Bytes(kHead));  // an empty payload is fine
  s.engine.run_until_idle();
  EXPECT_EQ(s.d0->eager_sent(), 1u);
}

TEST(SanDriver, SharedTailIsTimedLikeTheSameBytesInTheFrame) {
  // A tail rides by reference, but costs, the eager/rendezvous choice
  // and every wire instant read head + tail: each message lands when
  // the same bytes copied into the frame would.
  struct Seen {
    pc::SimTime at = 0;
    std::size_t bytes = 0;
    std::uint64_t wire_msgs = 0;
    std::uint64_t rendezvous = 0;
    bool operator==(const Seen&) const = default;
  };
  auto send = [](std::size_t head, std::size_t tail_bytes) {
    Stack s;
    Seen seen;
    s.d1->set_receiver([&](pc::NodeId, pc::Bytes f, std::size_t off,
                           pc::SharedBytes tail) {
      seen.at = s.engine.now();
      seen.bytes = f.size() - off + tail.size();
    });
    pc::SharedBytes tail;
    if (tail_bytes > 0) tail = pc::SharedBytes(pc::Bytes(tail_bytes, 7));
    s.d0->send(1, san_frame(head), tail);
    s.engine.run_until_idle();
    seen.wire_msgs = s.fabric.network(s.san).messages_sent();
    seen.rendezvous = s.d0->rendezvous_sent();
    return seen;
  };
  const std::size_t big = dr::SanDriver::kEagerThreshold + 1;
  const Seen flat_big = send(big, 0);
  EXPECT_EQ(flat_big.rendezvous, 1u);  // REQ + ACK + data
  EXPECT_EQ(flat_big.wire_msgs, 3u);
  EXPECT_EQ(send(64, big - 64), flat_big);
  EXPECT_EQ(send(0, big), flat_big);
  const Seen flat_small = send(1000, 0);
  EXPECT_EQ(flat_small.rendezvous, 0u);
  EXPECT_EQ(send(24, 976), flat_small);
}

TEST(SanDriver, StrayAckDoesNotReleaseARendezvous) {
  // An ACK whose sequence number is not the announced message's must
  // be dropped: only the real ACK releases the large message.
  auto big_arrival_us = [](bool forge) {
    Stack s;
    pc::SimTime arrival = 0;
    s.d1->set_receiver([&](pc::NodeId, pc::Bytes, std::size_t,
                           pc::SharedBytes) {
      arrival = s.engine.now();
    });
    s.d0->send(1, san_frame(dr::SanDriver::kEagerThreshold + 1));
    if (forge) {
      pc::Bytes ack(kHead, 0);
      ack[0] = 3;  // kAck
      const std::uint32_t seq = 42;
      std::memcpy(ack.data() + 4, &seq, sizeof(seq));
      EXPECT_TRUE(s.fabric.network(s.san).send(1, 0, std::move(ack)).ok());
    }
    s.engine.run_until_idle();
    EXPECT_EQ(s.d0->stalled(), 0u);
    return pc::to_micros(arrival);
  };
  const double clean = big_arrival_us(false);
  EXPECT_NEAR(clean, 167.52, 0.01);  // REQ + ACK round trip, then data
  EXPECT_EQ(big_arrival_us(true), clean);
}

TEST(SanDriver, RendezvousToOneNodeDoesNotDelayAnother) {
  // The stall is per destination: an eager message to node 2 posted
  // behind a rendezvous to node 1 leaves at once, exactly as it does
  // behind an eager message of the REQ's size.
  auto eager_arrival = [](std::size_t first_payload) {
    SanNodes s(3);
    pc::SimTime arrival = 0;
    s[2].set_receiver([&](pc::NodeId, pc::Bytes, std::size_t,
                          pc::SharedBytes) {
      arrival = s.engine.now();
    });
    s[0].send(1, san_frame(first_payload));
    s[0].send(2, san_frame(64));
    EXPECT_EQ(s[0].stalled(), first_payload == 0 ? 0u : 1u);
    s.engine.run_until_idle();
    EXPECT_EQ(s[0].stalled(), 0u);
    return arrival;
  };
  const pc::SimTime behind_rendezvous =
      eager_arrival(dr::SanDriver::kEagerThreshold + 1);
  EXPECT_GT(behind_rendezvous, 0u);
  EXPECT_EQ(behind_rendezvous, eager_arrival(0));
}

TEST(SanDriver, MixedSendsToOneNodeArriveInPostOrder) {
  SanNodes s(3);
  const std::size_t big = dr::SanDriver::kEagerThreshold + 1;
  std::vector<std::uint8_t> order;
  s[1].set_receiver([&](pc::NodeId src, pc::Bytes frame, std::size_t off,
                        pc::SharedBytes) {
    EXPECT_EQ(src, 0u);
    order.push_back(frame[off]);
  });
  s[0].send(1, san_frame(big, 1));
  s[0].send(1, san_frame(16, 2));
  s[0].send(1, san_frame(big, 3));
  s[0].send(1, san_frame(16, 4));
  s[0].send(1, san_frame(16, 5));
  EXPECT_EQ(s[0].stalled(), 1u);
  s.engine.run_until_idle();

  EXPECT_EQ(order, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s[0].rendezvous_sent(), 2u);
  EXPECT_EQ(s[0].eager_sent(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(s[i].stalled(), 0u) << i;
}

TEST(SanDriver, RefusesLossyNetworks) {
  // GM-style SANs are reliable hardware; the MadIO header pairing and
  // the rendezvous protocol depend on it.  A lossy model must be
  // rejected loudly at construction, not corrupt streams silently.
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId net =
      fabric.add_network(sn::profiles::transcontinental_internet(0.05));
  fabric.attach(net, 0);
  pc::Host host(engine, 0);
  EXPECT_THROW(dr::SanDriver(host, fabric, net), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Madeleine
// ---------------------------------------------------------------------------

TEST(Madeleine, ChannelsDemultiplexAndSegmentsRoundTrip) {
  Stack s;
  md::Channel* tx_a = s.m0->open_channel();
  md::Channel* tx_b = s.m0->open_channel();
  md::Channel* rx_a = s.m1->open_channel();
  md::Channel* rx_b = s.m1->open_channel();
  ASSERT_EQ(tx_a->id, rx_a->id);
  ASSERT_EQ(tx_b->id, rx_b->id);

  std::string got_a, got_b;
  s.m1->set_recv_handler(*rx_a, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView head = u.unpack(3);
    const pc::ByteView tail = u.unpack(64);  // clamped to what is left
    got_a.assign(head.begin(), head.end());
    got_a.append(tail.begin(), tail.end());
    EXPECT_EQ(u.remaining(), 0u);
  });
  s.m1->set_recv_handler(*rx_b, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView v = u.remaining_view();
    got_b.assign(v.begin(), v.end());
  });

  md::PackHandle pa = s.m0->begin_packing(*tx_a, 1);
  pa.pack(pc::view_of("one"), md::SendMode::safer);
  pa.pack(pc::view_of("-two"), md::SendMode::later);
  s.m0->end_packing(std::move(pa));

  md::PackHandle pb = s.m0->begin_packing(*tx_b, 1);
  pb.pack(pc::view_of("channel-b"), md::SendMode::cheaper);
  s.m0->end_packing(std::move(pb));
  s.engine.run_until_idle();

  EXPECT_EQ(got_a, "one-two");
  EXPECT_EQ(got_b, "channel-b");
  EXPECT_EQ(s.m1->messages_received(), 2u);
  EXPECT_EQ(s.m1->malformed(), 0u);
}

TEST(Madeleine, SharedTailArrivesByReference) {
  // The receiver's tail is the sender's block: same bytes in memory,
  // shared while the handler runs, never copied into the buffer.
  Stack s;
  md::Channel* tx = s.m0->open_channel();
  md::Channel* rx = s.m1->open_channel();
  const pc::SharedBytes block(pc::Bytes(5000, 0x5A));
  std::string head;
  bool same_block = false;
  std::size_t shared_by = 0;
  s.m1->set_recv_handler(*rx, [&](pc::NodeId, md::UnpackHandle& u) {
    head = to_text(u.unpack(u.remaining()));
    same_block = u.tail().data() == block.data();
    shared_by = u.tail().use_count();
  });
  md::PackHandle h = s.m0->begin_packing(*tx, 1);
  h.pack(pc::view_of("head"));
  h.pack(block);
  EXPECT_EQ(h.byte_size(), 4u + block.size());
  EXPECT_THROW(h.pack(pc::view_of("after")), std::logic_error);
  s.m0->end_packing(std::move(h));
  // A handle flushes once: its buffer left with the first flush.
  EXPECT_THROW(s.m0->end_packing(std::move(h)), std::logic_error);
  s.engine.run_until_idle();
  EXPECT_EQ(head, "head");
  EXPECT_TRUE(same_block);
  EXPECT_GE(shared_by, 2u);
  EXPECT_EQ(block.use_count(), 1u);  // nothing keeps it after delivery
  EXPECT_EQ(s.m1->messages_received(), 1u);
  EXPECT_EQ(s.m1->malformed(), 0u);
}

TEST(Madeleine, ForgedLengthWithATailIsMalformed) {
  // The header's length covers the tail: a message whose head and tail
  // do not add up to it is counted malformed, never delivered.
  Stack s;
  s.m0->open_channel();
  md::Channel* rx = s.m1->open_channel();
  int delivered = 0;
  s.m1->set_recv_handler(*rx, [&](pc::NodeId, md::UnpackHandle&) {
    ++delivered;
  });
  auto forge = [&](std::uint32_t length) {
    pc::Bytes frame(kHead + md::Madeleine::kHeaderSize + 3, 0);
    frame[kHead] = md::Madeleine::kMagic;
    frame[kHead + 1] = rx->id;
    const std::uint16_t segments = 2;
    std::memcpy(frame.data() + kHead + 2, &segments, sizeof(segments));
    std::memcpy(frame.data() + kHead + 4, &length, sizeof(length));
    s.d0->send(1, std::move(frame), pc::SharedBytes(pc::Bytes(100, 1)));
  };
  forge(3);        // the head alone
  forge(100);      // the tail alone
  forge(3 + 101);  // one byte too many
  forge(3 + 100);  // the real total, twice
  forge(3 + 100);
  s.engine.run_until_idle();
  EXPECT_EQ(s.m1->malformed(), 3u);
  EXPECT_EQ(s.m1->messages_received(), 2u);
  EXPECT_EQ(delivered, 2);
}

// ---------------------------------------------------------------------------
// MadIO
// ---------------------------------------------------------------------------

TEST(MadIO, TagsMultiplexOverOneChannel) {
  Stack s;
  std::string got1, got2;
  s.io1->set_handler(1, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView v = u.remaining_view();
    got1.assign(v.begin(), v.end());
  });
  s.io1->set_handler(2, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView v = u.remaining_view();
    got2.assign(v.begin(), v.end());
  });
  s.io0->send(1, 1, pc::view_of("for tag one"));
  s.io0->send(2, 1, pc::view_of("for tag two"));
  s.engine.run_until_idle();
  EXPECT_EQ(got1, "for tag one");
  EXPECT_EQ(got2, "for tag two");
  EXPECT_EQ(s.io1->dropped(), 0u);
  EXPECT_EQ(s.io1->seq_gaps(), 0u);  // reliable SAN: gap-free sequences
}

TEST(MadIO, CombiningSendsOneHardwareMessagePerSend) {
  for (const bool combining : {true, false}) {
    Stack s(combining);
    int delivered = 0;
    s.io1->set_handler(7, [&](pc::NodeId, md::UnpackHandle&) { ++delivered; });
    const std::uint64_t before = s.fabric.network(s.san).messages_sent();
    for (int i = 0; i < 5; ++i) s.io0->send(7, 1, pc::view_of("x"));
    s.engine.run_until_idle();
    EXPECT_EQ(delivered, 5);
    // Combined: header rides the data message.  Naive: every send costs
    // a second hardware message for the detached header.
    EXPECT_EQ(s.fabric.network(s.san).messages_sent() - before,
              combining ? 5u : 10u);
    EXPECT_EQ(s.io1->seq_gaps(), 0u);
  }
}

TEST(MadIO, CombiningStrictlyLowersDeliveryLatency) {
  auto one_way = [](bool combining) {
    Stack s(combining);
    pc::SimTime arrival = 0;
    s.io1->set_handler(3, [&](pc::NodeId, md::UnpackHandle&) {
      arrival = s.engine.now();
    });
    s.io0->send(3, 1, pc::view_of("ping"));
    s.engine.run_until_idle();
    return arrival;
  };
  const pc::SimTime combined = one_way(true);
  const pc::SimTime naive = one_way(false);
  EXPECT_LT(combined, naive);
  // The naive path pays an extra per-message injection (partly offset
  // by the 24 header bytes its payload message no longer carries).
  EXPECT_GE(naive - combined, dr::SanDriver::kPerMessage / 2);
}

TEST(MadIO, UnknownTagIsDroppedCleanly) {
  Stack s;
  s.io0->send(42, 1, pc::view_of("nobody listens"));
  s.engine.run_until_idle();
  EXPECT_EQ(s.io1->dropped(), 1u);
}

TEST(MadIO, QueuedSpanStartsWhenTheMessageArrives) {
  // The span's start instant waits in the handle's scratch bytes while
  // the arbitration holds the message; it must read back as the
  // instant Madeleine delivered it.  A raw Madeleine message of the
  // same size, alone on a twin stack, gives that instant.
  const std::string payload(40, 'q');
  pc::SimTime arrived = 0;
  {
    Stack s;
    md::Channel* c0 = s.m0->open_channel();
    md::Channel* c1 = s.m1->open_channel();
    s.m1->set_recv_handler(*c1, [&](pc::NodeId, md::UnpackHandle&) {
      arrived = s.engine.now();
    });
    md::PackHandle h = s.m0->begin_packing(*c0, 1);
    h.pack(pc::view_of(std::string(vl::wire::kHeaderSize, 'h') + payload));
    s.m0->end_packing(std::move(h));
    s.engine.run_until_idle();
  }
  Stack s;
  s.engine.tracer().enable(padico::obs::kAllCats);
  pc::SimTime handled = 0;
  s.io1->set_handler(5, [&](pc::NodeId, md::UnpackHandle&) {
    handled = s.engine.now();
  });
  s.io0->send(5, 1, pc::view_of(payload));
  s.engine.run_until_idle();
  int spans = 0;
  for (const padico::obs::TraceEvent& e : s.engine.tracer().events()) {
    if (std::string(e.name) != "madio.queued") continue;
    ++spans;
    EXPECT_GT(arrived, 0u);
    EXPECT_EQ(e.ts, arrived);
    EXPECT_GT(e.dur, 0u);  // the arbitration's dispatch slice
    EXPECT_EQ(e.ts + e.dur, handled);
  }
  EXPECT_EQ(spans, 1);
}

TEST(MadIO, ControlHeaderOfTheOtherModeIsDropped) {
  // A forged `header` frame must not claim the sender's next combined
  // message for its tag, nor a forged `data` frame reach a tag of a
  // naive MadIO.
  for (const bool combining : {true, false}) {
    Stack s(combining);
    std::string real;
    int forged = 0;
    s.io1->set_handler(5, [&](pc::NodeId, md::UnpackHandle& u) {
      const pc::ByteView v = u.remaining_view();
      real.assign(v.begin(), v.end());
    });
    s.io1->set_handler(9, [&](pc::NodeId, md::UnpackHandle&) { ++forged; });
    md::Channel bootstrap{0};  // MadIO's channel
    md::PackHandle h = s.m0->begin_packing(bootstrap, 1);
    h.pack(pc::view_of(vl::wire::encode(net::tagged_header(
        9, 0, 1,
        combining ? vl::wire::FrameType::header
                  : vl::wire::FrameType::data))));
    s.m0->end_packing(std::move(h));
    s.io0->send(5, 1, pc::view_of("real"));
    s.engine.run_until_idle();
    EXPECT_EQ(real, "real") << "combining " << combining;
    EXPECT_EQ(forged, 0) << "combining " << combining;
    EXPECT_EQ(s.io1->dropped(), 1u) << "combining " << combining;
    EXPECT_EQ(s.io1->seq_gaps(), 0u) << "combining " << combining;
  }
}

TEST(MadIO, SharedTailPairsWithItsHeaderInBothModes) {
  // With combining off the header travels alone and the message behind
  // it carries the tail: the pair must still meet at the tag's handler.
  for (const bool combining : {true, false}) {
    Stack s(combining);
    const pc::SharedBytes block(pc::Bytes(300, 0x33));
    std::vector<std::string> heads;
    std::vector<bool> same_block;
    s.io1->set_handler(4, [&](pc::NodeId, md::UnpackHandle& u) {
      heads.push_back(to_text(u.remaining_view()));
      same_block.push_back(u.tail().data() == block.data());
    });
    for (int i = 0; i < 3; ++i) {
      md::PackHandle h = s.io0->begin(4, 1);
      h.pack(pc::view_of("h" + std::to_string(i)));
      h.pack(block);
      s.io0->end(std::move(h));
    }
    s.engine.run_until_idle();
    EXPECT_EQ(heads, (std::vector<std::string>{"h0", "h1", "h2"}))
        << "combining " << combining;
    EXPECT_EQ(same_block, std::vector<bool>(3, true));
    EXPECT_EQ(s.fabric.network(s.san).messages_sent(), combining ? 3u : 6u);
    EXPECT_EQ(s.io1->dropped(), 0u);
    EXPECT_EQ(s.io1->seq_gaps(), 0u);
    EXPECT_EQ(block.use_count(), 1u);
  }
}

// ---------------------------------------------------------------------------
// SeqBook
// ---------------------------------------------------------------------------

TEST(SeqBook, KeysStaySeparateStreamsAcrossTableGrowth) {
  // 3,000 (tag, node) keys push the table through nine doublings; every
  // key keeps its own send and receive counters throughout.
  net::SeqBook<std::pair<net::Tag, pc::NodeId>> book;
  std::vector<std::pair<net::Tag, pc::NodeId>> keys;
  for (pc::NodeId n = 0; n < 1000; ++n) {
    for (const net::Tag tag : {net::Tag{0}, net::Tag{7}, net::MadIO::kVLinkTag}) {
      keys.emplace_back(tag, n);
    }
  }
  for (std::uint64_t round = 1; round <= 3; ++round) {
    for (const auto& k : keys) {
      ASSERT_EQ(book.next(k), round);
      ASSERT_TRUE(book.observe(k, round));
    }
  }
  EXPECT_EQ(book.gaps(), 0u);

  // A gap on one key counts once, resyncs, and touches no other key.
  EXPECT_FALSE(book.observe(keys[5], 9));
  EXPECT_EQ(book.gaps(), 1u);
  EXPECT_TRUE(book.observe(keys[5], 10));
  EXPECT_TRUE(book.observe(keys[4], 4));
  EXPECT_TRUE(book.observe(keys[6], 4));
  EXPECT_EQ(book.next(keys[5]), 4u);
  EXPECT_EQ(book.gaps(), 1u);
}

TEST(SeqBook, PairKeysDifferingInOneHalfAreDistinct) {
  net::SeqBook<std::pair<net::Tag, pc::NodeId>> book;
  const std::pair<net::Tag, pc::NodeId> keys[] = {
      {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0xFFFF, 0}, {0, 0xFFFFFFFF},
      {0xFFFF, 0xFFFFFFFF}};
  for (const auto& k : keys) EXPECT_EQ(book.next(k), 1u);
  for (const auto& k : keys) EXPECT_EQ(book.next(k), 2u);
  for (const auto& k : keys) EXPECT_TRUE(book.observe(k, 1));
  EXPECT_EQ(book.gaps(), 0u);

  net::SeqBook<int> ranks;  // the circuit layer's book
  EXPECT_EQ(ranks.next(0), 1u);
  EXPECT_EQ(ranks.next(1), 1u);
  EXPECT_EQ(ranks.next(0), 2u);
}

TEST(SeqBook, NegativeMpiTagsAreTheirOwnStreams) {
  // MPI keys on (peer rank, tag), and tags may be negative: each sign
  // and each half is its own stream.
  net::SeqBook<std::pair<int, int>> book;
  const std::pair<int, int> keys[] = {
      {0, -1}, {0, 1}, {-1, 0}, {1, 0}, {-1, -1}, {0, INT32_MIN},
      {0, INT32_MAX}, {INT32_MIN, 0}};
  for (const auto& k : keys) EXPECT_EQ(book.next(k), 1u);
  EXPECT_EQ(book.next({0, -1}), 2u);
  EXPECT_EQ(book.next({0, 1}), 2u);
  for (const auto& k : keys) EXPECT_TRUE(book.observe(k, 1));
  EXPECT_FALSE(book.observe({0, -1}, 3));  // skipped 2
  EXPECT_TRUE(book.observe({0, 1}, 2));
  EXPECT_EQ(book.gaps(), 1u);
}

// ---------------------------------------------------------------------------
// Arbitration
// ---------------------------------------------------------------------------

TEST(Arbitration, WeightsShapeTheInterleaveAndKeepFifoPerClass) {
  auto dispatch_order = [](int sys_w, int mad_w) {
    pc::Engine engine;
    net::Arbitration arb(engine);
    arb.set_policy(sys_w, mad_w);
    std::string order;
    for (int i = 0; i < 4; ++i) {
      arb.enqueue(net::Substrate::sys,
                  [&order, i] { order += static_cast<char>('a' + i); });
      arb.enqueue(net::Substrate::mad,
                  [&order, i] { order += static_cast<char>('0' + i); });
    }
    engine.run_until_idle();
    return order;
  };
  // mad substrate is polled first; FIFO must hold within each class.
  EXPECT_EQ(dispatch_order(1, 1), "0a1b2c3d");
  EXPECT_EQ(dispatch_order(1, 4), "0123abcd");
  EXPECT_EQ(dispatch_order(4, 1), "0abcd123");
}

// Each substrate's queue is a ring that starts at one slot and doubles
// when full: the first 3 sys events leave it at 4 slots.  Two
// dispatches before the second burst move its head, so the burst wraps
// it and then grows it; the mad burst grows its ring 1 -> 2 -> 4 -> 8.
// Order, instants and the weighted interleave must be those of a plain
// FIFO per class.
TEST(Arbitration, FifoHoldsAcrossWrapAndGrowth) {
  pc::Engine engine;
  net::Arbitration arb(engine);
  arb.set_policy(2, 3);
  std::string order;
  std::vector<pc::SimTime> at;
  auto event = [&](char c) {
    return [&order, &at, &engine, c] {
      order += c;
      at.push_back(engine.now());
    };
  };
  for (char c : std::string("abc")) arb.enqueue(net::Substrate::sys, event(c));
  while (arb.dispatched(net::Substrate::sys) < 2) ASSERT_TRUE(engine.step());
  EXPECT_EQ(order, "ab");
  EXPECT_EQ(arb.queued(net::Substrate::sys), 1u);
  for (char c : std::string("defghij")) {
    arb.enqueue(net::Substrate::sys, event(c));
  }
  for (char c : std::string("01234")) {
    arb.enqueue(net::Substrate::mad, event(c));
  }
  EXPECT_EQ(arb.queued(net::Substrate::sys), 8u);
  EXPECT_EQ(arb.queued(net::Substrate::mad), 5u);
  engine.run_until_idle();

  // A sys turn is 2 events and a mad turn 3; once mad runs dry, sys
  // renews its turn without switching.
  EXPECT_EQ(order, "ab012cd34efghij");
  const pc::Duration d = arb.dispatch_cost();
  const pc::Duration sw = arb.switch_cost();
  // A turn of k events starting at t polls again at t + k*d; a poll
  // that switches substrates delays the next dispatch by sw.  The
  // first poll, at d, finds only sys queued and switches away from mad.
  const pc::SimTime a = d + sw;
  const pc::SimTime m0 = a + 2 * d + sw;
  const pc::SimTime c = m0 + 3 * d + sw;
  const pc::SimTime m3 = c + 2 * d + sw;
  const pc::SimTime e = m3 + 2 * d + sw;  // mad ran dry: switch back
  const std::vector<pc::SimTime> want = {
      a,     a + d,     m0,        m0 + d,    m0 + 2 * d,  // a b 0 1 2
      c,     c + d,     m3,        m3 + d,                 // c d 3 4
      e,     e + d,     e + 2 * d, e + 3 * d, e + 4 * d,   // e f g h i
      e + 5 * d};                                          // j
  EXPECT_EQ(at, want);
  EXPECT_EQ(arb.dispatched(net::Substrate::sys), 10u);
  EXPECT_EQ(arb.dispatched(net::Substrate::mad), 5u);
  EXPECT_EQ(arb.queued(net::Substrate::sys), 0u);
  EXPECT_EQ(arb.queued(net::Substrate::mad), 0u);
}

namespace {

/// Counts destructions of live (not moved-from) copies.
struct DestroyCounter {
  int* destroyed;
  bool live = true;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& o) noexcept : destroyed(o.destroyed) {
    o.live = false;
  }
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (live) ++*destroyed;
  }
};

/// Counts its own moves; a closure the arbitration relocated shows them.
struct MoveCounter {
  int* moves;
  int* moves_at_run;
  MoveCounter(int* m, int* r) : moves(m), moves_at_run(r) {}
  MoveCounter(MoveCounter&& o) noexcept
      : moves(o.moves), moves_at_run(o.moves_at_run) {
    ++*moves;
  }
  MoveCounter(const MoveCounter&) = delete;
  void operator()() const { *moves_at_run = *moves; }
};

}  // namespace

// Closures still queued when their Arbitration dies are destroyed with
// it, before the engine: the buffers they own are freed (the ASan job
// checks for leaks), none of them runs, and each dies exactly once.
// The sys ring is wrapped, the mad ring grown, and some closures are
// too large to be stored inline.
TEST(Arbitration, DestroyedWithQueuedClosuresFreesWhatTheyOwn) {
  pc::Engine engine;
  int ran = 0;
  int destroyed = 0;
  {
    net::Arbitration arb(engine);
    auto small = [&ran, &destroyed](std::uint8_t v) {
      return [&ran, b = pc::Bytes(64, v), d = DestroyCounter(&destroyed)] {
        ran += b[0];
      };
    };
    auto large = [&ran, &destroyed](std::uint8_t v) {
      return [&ran, b = pc::Bytes(64, v), c = pc::Bytes(32, v),
              e = pc::Bytes(16, v), d = DestroyCounter(&destroyed)] {
        ran += b[0] + c[0] + e[0];
      };
    };
    for (std::uint8_t v = 1; v <= 4; ++v) {
      arb.enqueue(net::Substrate::sys, small(v));
    }
    while (arb.dispatched(net::Substrate::sys) < 3) ASSERT_TRUE(engine.step());
    EXPECT_EQ(destroyed, 3);  // each ran closure died after its run
    const int ran_before = ran;
    arb.enqueue(net::Substrate::sys, small(5));
    arb.enqueue(net::Substrate::sys, large(6));
    for (std::uint8_t v = 1; v <= 3; ++v) {
      arb.enqueue(net::Substrate::mad, small(v));
      arb.enqueue(net::Substrate::mad, large(v));
    }
    EXPECT_EQ(arb.queued(net::Substrate::sys), 3u);
    EXPECT_EQ(arb.queued(net::Substrate::mad), 6u);
    EXPECT_EQ(ran, ran_before);
    EXPECT_EQ(destroyed, 3);
  }
  // The 9 queued closures died with the arbitration, unrun.
  EXPECT_EQ(destroyed, 12);
  EXPECT_EQ(ran, 1 + 2 + 3);
  // The engine still holds the dead arbitration's next poll; it is
  // destroyed with the engine, never run.
  EXPECT_TRUE(engine.pending());
}

TEST(Arbitration, QueuedClosureIsBuiltOnceAndMovedAtMostOnce) {
  // A posted callable is built in its parked engine node and runs
  // there: a temporary is moved once, into the node, and never again
  // through the ring, its growth or the dispatch.
  pc::Engine engine;
  net::Arbitration arb(engine);
  std::vector<int> moves(6, 0), at_run(6, -1);
  for (int i = 0; i < 3; ++i) {
    arb.enqueue(net::Substrate::mad, MoveCounter(&moves[i], &at_run[i]));
    arb.enqueue(net::Substrate::sys,
                MoveCounter(&moves[3 + i], &at_run[3 + i]));
  }
  // An EventFn is moved in once too (after the one move that built it).
  int fn_moves = 0, fn_at_run = -1;
  pc::EventFn fn = MoveCounter(&fn_moves, &fn_at_run);
  arb.enqueue(net::Substrate::mad, std::move(fn));
  EXPECT_EQ(engine.pending_count(), 1u);  // the pump; parked ones are not
  engine.run_until_idle();
  EXPECT_EQ(at_run, std::vector<int>(6, 1));
  EXPECT_EQ(fn_at_run, 2);
}

TEST(Arbitration, SwitchingSubstratesCostsMoreThanStaying) {
  pc::Engine engine;
  net::Arbitration arb(engine);
  arb.set_policy(1, 2);  // mad turn covers both mad events
  std::vector<pc::SimTime> stamps;
  auto mark = [&] { stamps.push_back(engine.now()); };
  arb.enqueue(net::Substrate::mad, mark);
  arb.enqueue(net::Substrate::mad, mark);
  arb.enqueue(net::Substrate::sys, mark);  // forces one switch
  engine.run_until_idle();
  ASSERT_EQ(stamps.size(), 3u);
  const pc::Duration stay = stamps[1] - stamps[0];
  const pc::Duration swap = stamps[2] - stamps[1];
  EXPECT_EQ(stay, arb.dispatch_cost());
  EXPECT_EQ(swap, arb.dispatch_cost() + arb.switch_cost());
  EXPECT_EQ(arb.dispatched(net::Substrate::mad), 2u);
  EXPECT_EQ(arb.dispatched(net::Substrate::sys), 1u);
}

TEST(Arbitration, PolicyClampsToPositiveWeights) {
  pc::Engine engine;
  net::Arbitration arb(engine);
  arb.set_policy(0, -3);
  EXPECT_EQ(arb.sys_weight(), 1);
  EXPECT_EQ(arb.mad_weight(), 1);
}

// ---------------------------------------------------------------------------
// Grid integration: the "madio" vlink method over the full stack
// ---------------------------------------------------------------------------

namespace {

double grid_madio_latency_us(bool combining) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  grid.attach(san, 0);
  grid.attach(san, 1);
  gr::BuildOptions opts;
  opts.header_combining = combining;
  grid.build(opts);

  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().driver("madio")->listen(
      7100, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      "madio", {1, 7100}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });

  const int rounds = 16;
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto client = [&]() -> pc::Task {
    t0 = grid.engine().now();
    for (int i = 0; i < rounds; ++i) {
      a->post_write(pc::view_of("x"));
      co_await a->read_n(1);
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < rounds; ++i) {
      pc::Bytes ball = co_await b->read_n(1);
      b->post_write(pc::view_of(ball));
    }
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });
  return pc::to_micros(t1 - t0) / (2.0 * rounds);
}

}  // namespace

TEST(GridMadIO, NodeExposesTheArbitrationStack) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (pc::NodeId i = 0; i < 2; ++i) {
    grid.attach(san, i);
    grid.attach(lan, i);
  }
  grid.build();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NE(grid.node(i).madio(), nullptr);
    EXPECT_EQ(grid.node(i).madio(1), nullptr);  // only one SAN
    EXPECT_TRUE(grid.node(i).madio()->header_combining());
    grid.node(i).arbitration().set_policy(2, 3);
    EXPECT_EQ(grid.node(i).arbitration().mad_weight(), 3);
  }
}

TEST(GridMadIO, HeaderCombiningAblationShowsAtTheVlinkLevel) {
  const double combined = grid_madio_latency_us(true);
  const double naive = grid_madio_latency_us(false);
  EXPECT_LT(combined, naive);
  // Full stack one-way through MadIO on Myrinet: latency (7 us) +
  // injection + headers; the paper's full-stack figure is ~10 us.
  EXPECT_GT(combined, 7.5);
  EXPECT_LT(combined, 12.0);
}

TEST(GridMadIO, SysAndMadTrafficShareOneArbitration) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (pc::NodeId i = 0; i < 2; ++i) {
    grid.attach(san, i);
    grid.attach(lan, i);
  }
  grid.build();

  std::unique_ptr<vl::Link> sa, sb, la, lb;
  grid.node(1).vlink().driver("madio")->listen(
      7200, [&](std::unique_ptr<vl::Link> l) { sb = std::move(l); });
  grid.node(1).vlink().driver("sysio")->listen(
      7201, [&](std::unique_ptr<vl::Link> l) { lb = std::move(l); });
  grid.node(0).vlink().connect(
      "madio", {1, 7200},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) { sa = std::move(*r); });
  grid.node(0).vlink().connect(
      "sysio", {1, 7201},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) { la = std::move(*r); });
  grid.engine().run_while_pending([&] { return sa && sb && la && lb; });
  ASSERT_TRUE(sa && sb && la && lb);

  sa->post_write(pc::view_of("san"));
  la->post_write(pc::view_of("lan"));
  grid.engine().run_until_idle();
  EXPECT_EQ(sb->available(), 3u);
  EXPECT_EQ(lb->available(), 3u);

  // Both substrates dispatched through node 1's single arbitration.
  net::Arbitration& arb = grid.node(1).arbitration();
  EXPECT_GT(arb.dispatched(net::Substrate::mad), 0u);
  EXPECT_GT(arb.dispatched(net::Substrate::sys), 0u);
}

TEST(GridMadIO, SharedWriteArrivesByteExactWhenACopiedWriteWould) {
  // Over madio a shared block rides behind the SAN message by
  // reference, a copied write's bytes inside it: the same bytes arrive
  // at the same instant, eager and rendezvous sizes alike, and nothing
  // keeps the block.
  auto run = [](bool share) {
    gr::Grid grid;
    grid.add_nodes(2);
    sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
    grid.attach(san, 0);
    grid.attach(san, 1);
    grid.build();
    std::unique_ptr<vl::Link> a, b;
    grid.node(1).vlink().driver("madio")->listen(
        7300, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
    grid.node(0).vlink().connect(
        "madio", {1, 7300},
        [&](pc::Result<std::unique_ptr<vl::Link>> r) { a = std::move(*r); });
    grid.engine().run_while_pending([&] { return a && b; });
    EXPECT_TRUE(a && b);
    pc::Bytes want;
    std::vector<pc::SharedBytes> blocks;
    for (std::size_t n : {std::size_t{100}, std::size_t{64 * 1024}}) {
      pc::Bytes bytes(n);
      for (std::size_t i = 0; i < n; ++i) {
        bytes[i] = static_cast<std::uint8_t>(i * 13 + n);
      }
      want.insert(want.end(), bytes.begin(), bytes.end());
      blocks.emplace_back(std::move(bytes));
    }
    pc::Bytes got;
    pc::SimTime at = 0;
    b->set_ready_handler([&] {
      const pc::ByteView v = b->read_available();
      got.insert(got.end(), v.begin(), v.end());
      at = grid.engine().now();
    });
    for (const pc::SharedBytes& block : blocks) {
      if (share) {
        a->post_write(block);
      } else {
        a->post_write(block.view());
      }
    }
    grid.engine().run_until_idle();
    EXPECT_EQ(got, want);
    for (const pc::SharedBytes& block : blocks) {
      EXPECT_EQ(block.use_count(), 1u);
    }
    return at;
  };
  const pc::SimTime copied = run(false);
  EXPECT_GT(copied, 0u);
  EXPECT_EQ(run(true), copied);
}

TEST(GridMadIO, SharedWriteIsReadInTheWritersBlock) {
  // The reading link's view points into the writer's own block: no
  // layer of the SAN chain copied it, and the handler shares it.
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  grid.attach(san, 0);
  grid.attach(san, 1);
  grid.build();
  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().driver("madio")->listen(
      7400, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      "madio", {1, 7400},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) { a = std::move(*r); });
  grid.engine().run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a && b);
  const pc::SharedBytes block(pc::Bytes(4096, 0x61));
  bool same_block = false;
  std::size_t shared_by = 0;
  std::size_t got = 0;
  b->set_ready_handler([&] {
    const pc::ByteView v = b->read_available();
    same_block = v.data() == block.data();
    shared_by = block.use_count();
    got += v.size();
  });
  a->post_write(block);
  grid.engine().run_until_idle();
  EXPECT_EQ(got, block.size());
  EXPECT_TRUE(same_block);
  EXPECT_GE(shared_by, 2u);
  EXPECT_EQ(block.use_count(), 1u);
}
