// SeqBook: per-peer contiguous sequence numbering, the bookkeeping
// every tag-multiplexed layer of the stack used to reimplement.
//
// MadIO stamps a per-(tag, destination) sequence into each control
// header, the circuit layer a per-rank one, and the MPI personality a
// per-(rank, tag) one; on the receive side all three must detect the
// same condition — "this peer's stream skipped a number" — which on a
// reliable SAN means wiring can no longer be trusted.  SeqBook owns
// both sides: `next()` hands out the sender's contiguous numbers,
// `observe()` verifies the receiver's and counts gaps (resyncing so
// one loss is one gap, not a gap per subsequent message).
//
// Units / ownership / determinism: pure bookkeeping, no clocks.  Keys
// live in one flat open-addressing table (linear probing, power-of-two
// capacity, keys packed into 64 bits): one slot holds a key's send and
// receive counters, so a request and its reply touch the same slot,
// and no key is ever removed.  Nothing iterates the table, only point
// lookups on the per-message hot path, so slot order can never leak
// into dispatch traces.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace padico::net {

/// `Key` is an integral type of at most 64 bits or a pair of integral
/// types of at most 32 bits each; either packs into one 64-bit word
/// without collisions (negative values included).
template <typename Key>
class SeqBook {
 public:
  /// Next sequence number of the stream keyed `k` (first call: 1).
  std::uint64_t next(const Key& k) { return ++slot(k).next; }

  /// Record `seq` arriving on the stream keyed `k`.  Returns true when
  /// it follows its predecessor; otherwise counts one gap, resyncs the
  /// expectation to `seq`, and returns false.
  bool observe(const Key& k, std::uint64_t seq) {
    std::uint64_t& expected = slot(k).expected;
    if (seq != ++expected) {
      expected = seq;
      ++gaps_;
      return false;
    }
    return true;
  }

  /// Observed discontinuities across every stream of this book.
  std::uint64_t gaps() const noexcept { return gaps_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t next = 0;      // last number handed out
    std::uint64_t expected = 0;  // last number observed
    bool used = false;
  };

  template <typename T>
  static std::uint64_t bits(T v) noexcept {
    return static_cast<std::uint64_t>(static_cast<std::make_unsigned_t<T>>(v));
  }

  static std::uint64_t pack(const Key& k) noexcept {
    if constexpr (std::is_integral_v<Key>) {
      static_assert(sizeof(Key) <= 8);
      return bits(k);
    } else {
      static_assert(sizeof(typename Key::first_type) <= 4 &&
                    sizeof(typename Key::second_type) <= 4);
      return (bits(k.first) << 32) | bits(k.second);
    }
  }

  /// The slot of `k`, claimed on first use.  Grows first whenever one
  /// more key would lift the load above 3/4.
  Slot& slot(const Key& k) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::uint64_t key = pack(k);
    Slot* s = probe(slots_, key);
    if (!s->used) {
      s->used = true;
      s->key = key;
      ++size_;
    }
    return *s;
  }

  /// The slot holding `key`, or the empty one where it belongs.
  static Slot* probe(std::vector<Slot>& slots, std::uint64_t key) noexcept {
    const std::size_t mask = slots.size() - 1;
    // Keys that differ only in their low bits (tag, node) still spread.
    std::size_t i = static_cast<std::size_t>(core::mix64(key)) & mask;
    while (slots[i].used && slots[i].key != key) i = (i + 1) & mask;
    return &slots[i];
  }

  void grow() {
    std::vector<Slot> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (const Slot& s : slots_) {
      if (s.used) *probe(bigger, s.key) = s;
    }
    slots_ = std::move(bigger);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t gaps_ = 0;
};

}  // namespace padico::net
