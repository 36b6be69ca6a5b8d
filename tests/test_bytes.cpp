#include "core/bytes.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace pc = padico::core;

TEST(Bytes, ViewOfVariants) {
  pc::Bytes b{1, 2, 3};
  pc::ByteView v = pc::view_of(b);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), b.data());  // borrowed, not copied
  EXPECT_EQ(v[2], 3);

  pc::ByteView lit = pc::view_of("ping");
  EXPECT_EQ(lit.size(), 4u);  // no trailing NUL
  EXPECT_EQ(lit[0], 'p');

  std::string s = "xy";
  EXPECT_EQ(pc::view_of(s).size(), 2u);

  EXPECT_EQ(pc::view_of(b.data(), 2).size(), 2u);
}

TEST(Bytes, ViewSubviewAndToBytes) {
  pc::Bytes b{9, 8, 7, 6};
  pc::ByteView v = pc::view_of(b).subview(1, 2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 8);
  pc::Bytes copy = v.to_bytes();
  EXPECT_EQ(copy, (pc::Bytes{8, 7}));
}

TEST(BytesPool, RecyclesReleasedCapacity) {
  pc::BytesPool pool;
  pc::Bytes b = pool.acquire_capacity(100);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 100u);
  EXPECT_EQ(pool.misses(), 1u);  // nothing to recycle yet

  b.assign(100, 0xEE);
  const std::uint8_t* data = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);

  pc::Bytes again = pool.acquire_capacity(64);  // fits the same storage
  EXPECT_TRUE(again.empty());                   // handed back cleared
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BytesPool, OversizedBuffersAreNeverHoarded) {
  pc::BytesPool pool;
  pc::Bytes big(pc::BytesPool::kMaxPooledCapacity + 1);
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled(), 0u);

  pc::Bytes huge =
      pool.acquire_capacity(pc::BytesPool::kMaxPooledCapacity + 1);
  EXPECT_GE(huge.capacity(), pc::BytesPool::kMaxPooledCapacity + 1);
  pool.release(std::move(huge));
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BytesPool, FreeListIsBounded) {
  pc::BytesPool pool;
  for (std::size_t i = 0; i < pc::BytesPool::kMaxFree + 10; ++i) {
    pool.release(pc::Bytes(8));
  }
  EXPECT_EQ(pool.pooled(), pc::BytesPool::kMaxFree);
}

TEST(SharedBytes, CopiesShareOneBlock) {
  const pc::SharedBytes a(pc::Bytes{1, 2, 3});
  const pc::SharedBytes b = a;
  pc::SharedBytes c;
  c = b;
  EXPECT_EQ(a.use_count(), 3u);
  EXPECT_EQ(b.data(), a.data());  // one block, never copied
  EXPECT_EQ(c.data(), a.data());
  EXPECT_EQ(c.view().to_bytes(), (pc::Bytes{1, 2, 3}));
}

TEST(SharedBytes, MoveStealsTheBlock) {
  pc::SharedBytes a(pc::Bytes{4, 5});
  const std::uint8_t* block = a.data();
  pc::SharedBytes b = std::move(a);
  EXPECT_EQ(b.data(), block);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(a.use_count(), 0u);  // NOLINT: moved-from is empty
  EXPECT_TRUE(a.empty());        // NOLINT
  pc::SharedBytes c;
  c = std::move(b);
  EXPECT_EQ(c.data(), block);
  EXPECT_EQ(c.use_count(), 1u);
  EXPECT_TRUE(b.empty());  // NOLINT
}

TEST(SharedBytes, SelfAssignmentIsSafe) {
  pc::SharedBytes a(pc::Bytes{6, 7, 8});
  const std::uint8_t* block = a.data();
  pc::SharedBytes& alias = a;
  a = alias;
  EXPECT_EQ(a.data(), block);
  EXPECT_EQ(a.use_count(), 1u);
  a = std::move(alias);
  EXPECT_EQ(a.data(), block);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a.view().to_bytes(), (pc::Bytes{6, 7, 8}));
}

TEST(SharedBytes, BlockDiesWithItsLastHandle) {
  // Under ASan a block that outlived its last handle is a reported
  // leak, and one freed early is a use-after-free on the reads below.
  pc::SharedBytes keep;
  {
    pc::SharedBytes a(pc::Bytes(1000, 0x11));
    keep = a;
    pc::SharedBytes b = a;
    EXPECT_EQ(keep.use_count(), 3u);
  }
  EXPECT_EQ(keep.use_count(), 1u);
  EXPECT_EQ(keep.view()[999], 0x11);
  keep = pc::SharedBytes(pc::Bytes{9});  // frees the first block
  EXPECT_EQ(keep.size(), 1u);
  keep = {};
  EXPECT_EQ(keep.use_count(), 0u);
}

TEST(SharedBytes, EmptyHandleHasAnEmptyView) {
  const pc::SharedBytes none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_TRUE(none.view().empty());
  EXPECT_EQ(none.use_count(), 0u);
  const pc::SharedBytes copy = none;
  EXPECT_EQ(copy.use_count(), 0u);
  EXPECT_TRUE(pc::SharedBytes(pc::Bytes{}).empty());
  static_assert(sizeof(pc::SharedBytes) == sizeof(void*));
}
