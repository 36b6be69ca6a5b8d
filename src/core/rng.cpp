#include "core/rng.hpp"

namespace padico::core {

std::uint64_t Rng::next_u64() {
  const std::uint64_t z = mix64(state_);
  state_ += 0x9e3779b97f4a7c15ull;
  return z;
}

double Rng::uniform() {
  // 53 top bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full range
  return lo + next_u64() % span;
}

}  // namespace padico::core
