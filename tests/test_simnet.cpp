#include "simnet/simnet.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "core/engine.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;

namespace {

struct TwoNodeNet {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId id;

  explicit TwoNodeNet(const sn::LinkModel& model) : id(fabric.add_network(model)) {
    fabric.attach(id, 0);
    fabric.attach(id, 1);
  }
  sn::Network& net() { return fabric.network(id); }
};

pc::Bytes pattern(std::size_t n) {
  pc::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return b;
}

/// One arrival: its instant and its bytes (head then tail).
struct Arrival {
  pc::SimTime at = 0;
  pc::Bytes bytes;
  std::size_t tail = 0;  // bytes that came as a tail
};

/// Send each message of `sizes` from node 0 to node 1 on a fresh
/// `model` network, flat or split into a 24-byte head and a shared
/// tail, and record what arrives.
std::pair<std::vector<Arrival>, std::uint64_t> transfer(
    const sn::LinkModel& model, const std::vector<std::size_t>& sizes,
    bool split) {
  TwoNodeNet t(model);
  std::vector<Arrival> got;
  t.net().set_receiver(
      1, [&](pc::NodeId, pc::Bytes head, pc::SharedBytes tail) {
        Arrival a{t.engine.now(), std::move(head), tail.size()};
        a.bytes.insert(a.bytes.end(), tail.data(), tail.data() + tail.size());
        got.push_back(std::move(a));
      });
  for (std::size_t n : sizes) {
    pc::Bytes whole = pattern(n);
    if (split) {
      pc::Bytes head(whole.begin(), whole.begin() + 24);
      pc::SharedBytes tail(pc::Bytes(whole.begin() + 24, whole.end()));
      EXPECT_TRUE(t.net().send(0, 1, std::move(head), std::move(tail)).ok());
    } else {
      EXPECT_TRUE(t.net().send(0, 1, std::move(whole)).ok());
    }
  }
  t.engine.run_until_idle();
  EXPECT_EQ(t.net().bytes_sent(),
            std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
  return {std::move(got), t.net().frames_dropped()};
}

}  // namespace

TEST(Simnet, OneByteArrivalMatchesModel) {
  TwoNodeNet t(sn::profiles::myrinet2000());
  const sn::LinkModel& m = t.net().model();

  auto r = t.net().send(0, 1, pc::Bytes(1, 0x42));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, m.latency + t.net().tx_time(1));

  // Myrinet-2000: ~7 us one-way for a 1-byte message.
  const double us = pc::to_micros(*r);
  EXPECT_GT(us, 6.9);
  EXPECT_LT(us, 7.5);
}

TEST(Simnet, DeliveryCallbackFiresAtArrival) {
  TwoNodeNet t(sn::profiles::ethernet100());
  pc::SimTime delivered_at = 0;
  pc::Bytes got;
  t.net().set_receiver(
      1, [&](pc::NodeId src, pc::Bytes payload, pc::SharedBytes) {
        EXPECT_EQ(src, 0u);
        delivered_at = t.engine.now();
        got = std::move(payload);
      });
  auto r = t.net().send(0, 1, pc::Bytes{1, 2, 3});
  ASSERT_TRUE(r.ok());
  t.engine.run_until_idle();
  EXPECT_EQ(delivered_at, *r);
  EXPECT_EQ(got, (pc::Bytes{1, 2, 3}));
}

TEST(Simnet, AsymptoticBandwidthMatchesModel) {
  TwoNodeNet t(sn::profiles::ethernet100());
  const std::size_t total = 16u << 20;  // one 16 MB transfer
  auto r = t.net().send(0, 1, pc::Bytes(total, 0x5a));
  ASSERT_TRUE(r.ok());
  const double rate = static_cast<double>(total) / pc::to_seconds(*r);
  // 12.5 MB/s raw minus per-frame header overhead -> ~12.0 MB/s.
  EXPECT_GT(rate, 11.5e6);
  EXPECT_LT(rate, 12.5e6);
}

TEST(Simnet, SenderNicSerialisesFifo) {
  TwoNodeNet t(sn::profiles::myrinet2000());
  const std::size_t size = 64 * 1024;
  auto r1 = t.net().send(0, 1, pc::Bytes(size, 1));
  auto r2 = t.net().send(0, 1, pc::Bytes(size, 2));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Second message starts when the first leaves the NIC: arrivals are
  // spaced by exactly one tx_time (latency pipelines).
  EXPECT_EQ(*r2 - *r1, t.net().tx_time(size));

  std::vector<int> order;
  t.net().set_receiver(1, [&](pc::NodeId, pc::Bytes payload, pc::SharedBytes) {
    order.push_back(payload[0]);
  });
  t.engine.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simnet, UnattachedNodeIsUnreachable) {
  TwoNodeNet t(sn::profiles::ethernet100());
  auto r = t.net().send(0, 7, pc::Bytes(1, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), pc::Status::unreachable);
}

TEST(Simnet, MtuSegmentationAndOverhead) {
  sn::LinkModel m = sn::profiles::ethernet100();
  TwoNodeNet t(m);
  EXPECT_EQ(t.net().frames_for(1), 1u);
  EXPECT_EQ(t.net().frames_for(m.mtu), 1u);
  EXPECT_EQ(t.net().frames_for(m.mtu + 1), 2u);
  EXPECT_EQ(t.net().frames_for(10 * m.mtu), 10u);
  // Two frames carry two headers' worth of overhead.
  const pc::Duration one = t.net().tx_time(m.mtu);
  const pc::Duration two = t.net().tx_time(2 * m.mtu);
  EXPECT_EQ(two, 2 * one);
}

TEST(Simnet, LossyLinkDropsDeterministically) {
  auto run = [] {
    TwoNodeNet t(sn::profiles::transcontinental_internet(0.5));
    std::vector<int> delivered;
    t.net().set_receiver(
        1, [&](pc::NodeId, pc::Bytes payload, pc::SharedBytes) {
          delivered.push_back(payload[0]);
        });
    for (int i = 0; i < 64; ++i) {
      auto r = t.net().send(0, 1, pc::Bytes(1, static_cast<std::uint8_t>(i)));
      EXPECT_TRUE(r.ok());  // loss happens on the wire, not at send
    }
    t.engine.run_until_idle();
    return std::make_pair(delivered, t.net().messages_dropped());
  };
  auto [delivered1, dropped1] = run();
  auto [delivered2, dropped2] = run();
  EXPECT_GT(dropped1, 0u);                  // 50% loss must bite
  EXPECT_LT(delivered1.size(), 64u);
  EXPECT_EQ(delivered1, delivered2);        // bit-identical loss pattern
  EXPECT_EQ(dropped1, dropped2);
}

TEST(Simnet, LossTruncatesToSurvivingPrefix) {
  sn::LinkModel m = sn::profiles::transcontinental_internet(0.3);
  TwoNodeNet t(m);
  std::vector<std::size_t> sizes;
  t.net().set_receiver(1, [&](pc::NodeId, pc::Bytes payload, pc::SharedBytes) {
    sizes.push_back(payload.size());
  });
  const std::size_t total = 20 * m.mtu;  // 20 frames per message
  const int count = 32;
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(t.net().send(0, 1, pc::Bytes(total, 0x5a)).ok());
  }
  t.engine.run_until_idle();
  EXPECT_GT(t.net().frames_dropped(), 0u);
  // Loss is per FRAME: a hit mid-message truncates to the surviving
  // whole-frame prefix instead of vaporising the whole message.  At
  // 30 % per-frame loss an intact 20-frame message (0.7^20) is rare.
  bool truncated = false;
  for (std::size_t s : sizes) {
    ASSERT_GT(s, 0u);
    ASSERT_LE(s, total);
    if (s < total) {
      truncated = true;
      EXPECT_EQ(s % m.mtu, 0u);
    }
  }
  EXPECT_TRUE(truncated);
  // messages_dropped counts only messages whose FIRST frame was lost
  // (nothing delivered at all); everything else arrives, maybe short.
  EXPECT_EQ(sizes.size() + t.net().messages_dropped(),
            static_cast<std::size_t>(count));
}

TEST(Simnet, PerFrameLossPatternIsDeterministic) {
  auto run = [] {
    sn::LinkModel m = sn::profiles::transcontinental_internet(0.2);
    TwoNodeNet t(m);
    std::vector<std::size_t> sizes;
    t.net().set_receiver(
        1, [&](pc::NodeId, pc::Bytes payload, pc::SharedBytes) {
          sizes.push_back(payload.size());
        });
    for (int i = 0; i < 24; ++i) {
      EXPECT_TRUE(t.net().send(0, 1, pc::Bytes(8 * m.mtu, 1)).ok());
    }
    t.engine.run_until_idle();
    return std::make_pair(sizes, t.net().frames_dropped());
  };
  auto [sizes1, dropped1] = run();
  auto [sizes2, dropped2] = run();
  EXPECT_GT(dropped1, 0u);
  EXPECT_EQ(sizes1, sizes2);  // bit-identical truncation pattern
  EXPECT_EQ(dropped1, dropped2);
}

TEST(Simnet, StatsCountMessagesAndBytes) {
  TwoNodeNet t(sn::profiles::myrinet2000());
  t.net().send(0, 1, pc::Bytes(100, 0));
  t.net().send(1, 0, pc::Bytes(50, 0));
  EXPECT_EQ(t.net().messages_sent(), 2u);
  EXPECT_EQ(t.net().bytes_sent(), 150u);
  EXPECT_EQ(t.net().messages_dropped(), 0u);
}

TEST(Simnet, TailArrivesWithTheFlatMessageOfTheSameSize) {
  // Head + tail times, counts and delivers exactly like the flat
  // message of the same total size, back to back on one NIC too.
  const std::vector<std::size_t> sizes = {24 + 1, 3000, 256 * 1024, 100};
  const auto [flat, flat_lost] =
      transfer(sn::profiles::ethernet100(), sizes, false);
  const auto [split, split_lost] =
      transfer(sn::profiles::ethernet100(), sizes, true);
  ASSERT_EQ(flat.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(split[i].at, flat[i].at) << "message " << i;
    EXPECT_EQ(split[i].bytes, flat[i].bytes) << "message " << i;
    EXPECT_EQ(split[i].tail, sizes[i] - 24) << "message " << i;  // by ref
  }
}

TEST(Simnet, TailMessageRidesTheReceiverByReference) {
  TwoNodeNet t(sn::profiles::myrinet2000());
  const pc::SharedBytes block(pattern(5000));
  const std::uint8_t* seen = nullptr;
  t.net().set_receiver(1, [&](pc::NodeId, pc::Bytes, pc::SharedBytes tail) {
    seen = tail.data();
  });
  ASSERT_TRUE(t.net().send(0, 1, pc::Bytes(24, 1), block).ok());
  EXPECT_EQ(block.use_count(), 2u);  // in flight in the delivery closure
  t.engine.run_until_idle();
  EXPECT_EQ(seen, block.data());
  EXPECT_EQ(block.use_count(), 1u);
}

TEST(Simnet, LossyTruncationOfATailDeliversTheFlatPrefix) {
  // Same loss draws as the flat messages (the draws read the total
  // size), and a truncated message arrives flattened: exactly the
  // surviving prefix, no tail.
  const sn::LinkModel m = sn::profiles::transcontinental_internet(0.2);
  const std::vector<std::size_t> sizes(24, 8 * m.mtu + 100);
  const auto [flat, flat_lost] = transfer(m, sizes, false);
  const auto [split, split_lost] = transfer(m, sizes, true);
  EXPECT_GT(flat_lost, 0u);
  EXPECT_EQ(split_lost, flat_lost);
  ASSERT_EQ(split.size(), flat.size());
  bool truncated = false;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(split[i].at, flat[i].at);
    EXPECT_EQ(split[i].bytes, flat[i].bytes);
    if (flat[i].bytes.size() < sizes[i]) {
      truncated = true;
      EXPECT_EQ(split[i].tail, 0u);  // flattened into the head
    }
  }
  EXPECT_TRUE(truncated);
}
