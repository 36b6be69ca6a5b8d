// Seedable deterministic random source (splitmix64).
//
// Used for simulated loss, jitter, and benchmark payloads.  Not
// cryptographic; chosen for cross-platform bit-exact reproducibility.
#pragma once

#include <cstdint>

namespace padico::core {

/// One splitmix64 step: the output for generator state `x`.  Rng draws
/// its stream with it, and the flat hash tables (net::SeqBook,
/// vlink::FrameDriver's connection index) spread their keys with it.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  void reseed(std::uint64_t seed) { state_ = seed; }

 private:
  std::uint64_t state_;
};

}  // namespace padico::core
