#include "scenario/arrival.hpp"

#include <algorithm>
#include <bit>

namespace padico::scenario {

namespace fixmath {

std::uint64_t log2_q32(std::uint64_t u) {
  // Normalize the mantissa into [2^63, 2^64) — i.e. [1, 2) in Q63 —
  // then pull one fraction bit per squaring: y^2 >= 2 exactly when the
  // next binary digit of log2 is 1.
  // The digit picks the next mantissa through a mask, not a branch: it
  // is a coin flip the predictor would miss half the time.
  const int lz = std::countl_zero(u);
  const std::uint64_t int_part = static_cast<std::uint64_t>(63 - lz);
  std::uint64_t y = u << lz;
  std::uint64_t frac = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned __int128 sq = static_cast<unsigned __int128>(y) * y;
    const std::uint64_t hi = static_cast<std::uint64_t>(sq >> 64);
    const std::uint64_t digit = hi >> 63;  // sq >> 63 reached 2 in Q63
    const std::uint64_t keep_hi = 0 - digit;
    frac = (frac << 1) | digit;
    // digit 1: (sq >> 63) / 2 = hi; digit 0: sq >> 63 fits 64 bits.
    y = (hi & keep_hi) | (static_cast<std::uint64_t>(sq >> 63) & ~keep_hi);
  }
  return (int_part << 32) | frac;
}

std::uint64_t exp2_frac_q63(std::uint64_t f_q32) {
  // 2^f = product of 2^(2^-k) over the set bits of f.  The table holds
  // round(2^(2^-k) * 2^63) for k = 1..32; the running product stays
  // below 2^64 because the full product is 2^(1 - 2^-32) < 2.
  static constexpr std::uint64_t kRoots[32] = {
      0xb504f333f9de6484ull, 0x9837f0518db8a96full, 0x8b95c1e3ea8bd6e7ull,
      0x85aac367cc487b15ull, 0x82cd8698ac2ba1d7ull, 0x8164d1f3bc030773ull,
      0x80b1ed4fd999ab6cull, 0x8058d7d2d5e5f6b1ull, 0x802c6436d0e04f51ull,
      0x8016302f17467628ull, 0x800b179c82028fd1ull, 0x80058baf7fee3b5dull,
      0x8002c5d00fdcfcb7ull, 0x800162e61bed4a49ull, 0x8000b17292f702a4ull,
      0x800058b92abbae02ull, 0x80002c5c8dade4d7ull, 0x8000162e44eaf636ull,
      0x80000b1721fa7c19ull, 0x8000058b90de7e4dull, 0x800002c5c8678f37ull,
      0x80000162e431dba0ull, 0x800000b1721872d1ull, 0x80000058b90c1aa9ull,
      0x8000002c5c8605a4ull, 0x800000162e4300e6ull, 0x8000000b17217ff8ull,
      0x800000058b90bfddull, 0x80000002c5c85fe7ull, 0x8000000162e42ff2ull,
      0x80000000b17217f8ull, 0x8000000058b90bfcull,
  };
  // Only the set bits multiply, highest first, so the product is
  // formed in the same order as a scan over all 32 bits.
  std::uint64_t r = 1ull << 63;
  for (auto bits = static_cast<std::uint32_t>(f_q32); bits != 0;) {
    const int k = std::countl_zero(bits);
    r = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(r) * kRoots[k]) >> 63);
    bits ^= 0x80000000u >> k;
  }
  return r;
}

std::uint64_t pow2_neg_q32(std::uint64_t e_q32) {
  const std::uint64_t n = e_q32 >> 32;
  if (n >= 32) return 0;
  const std::uint64_t frac = e_q32 & 0xffffffffull;
  if (frac == 0) return (1ull << 32) >> n;
  // 2^-(n + f) = 2^(1 - f) / 2^(n + 1), and 1 - f lands back in (0, 1).
  const std::uint64_t m = exp2_frac_q63((1ull << 32) - frac);
  return m >> (32 + n);
}

}  // namespace fixmath

// ---------------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(const WorkloadSpec& w, std::uint64_t seed)
    : kind_(w.arrival), rng_(seed) {
  // The only floating-point operations in the whole sampler happen
  // right here, converting spec doubles into fixed-point constants:
  // one division and a few multiplies per run, each exactly rounded
  // the same way on every IEEE-754 platform.
  const double mean_gap = 1e9 / w.rate_per_sec;
  mean_gap_ns_ = static_cast<std::uint64_t>(mean_gap + 0.5);
  if (mean_gap_ns_ == 0) mean_gap_ns_ = 1;
  depth_q32_ = static_cast<std::uint64_t>(w.burst_depth * 4294967296.0);
  if (depth_q32_ >= (1ull << 32)) depth_q32_ = (1ull << 32) - 1;
  const double peak_gap = 1e9 / (w.rate_per_sec * (1.0 + w.burst_depth));
  peak_gap_ns_ = static_cast<std::uint64_t>(peak_gap + 0.5);
  if (peak_gap_ns_ == 0) peak_gap_ns_ = 1;
  period_ns_ = w.burst_period;

  gap_min_ = std::max<core::Duration>(1, w.gap_min);
  gap_max_ = std::max(w.gap_max, gap_min_);
  const std::uint64_t alpha_q32 =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     w.pareto_alpha * 4294967296.0));
  inv_alpha_q32_ = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) / alpha_q32);
  // r = (gap_min / gap_max)^alpha = 2^-(alpha * (log2 max - log2 min)).
  const std::uint64_t delta =
      fixmath::log2_q32(gap_max_) - fixmath::log2_q32(gap_min_);
  const std::uint64_t e = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(alpha_q32) * delta) >> 32);
  r_q32_ = fixmath::pow2_neg_q32(e);
}

std::uint64_t ArrivalProcess::exp_gap(std::uint64_t mean_ns) {
  // Inversion: gap = mean * (-ln U) with U = u / 2^64, and
  // -ln U = (64 - log2 u) * ln 2 — at most ~44.4, so Q32 throughout.
  std::uint64_t u = rng_.next_u64();
  if (u == 0) u = 1;
  const std::uint64_t neg_log2 = (64ull << 32) - fixmath::log2_q32(u);
  const std::uint64_t e_q32 = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(neg_log2) * fixmath::kLn2Q32) >> 32);
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(e_q32) * mean_ns) >> 32);
}

std::uint64_t ArrivalProcess::accept_q32() const {
  // lambda(t) / lambda_max with lambda(t) = rate * (1 + depth * tri(t)),
  // tri the [-1, 1] triangle wave over period_ns_ starting at -1 (the
  // thinned process opens in a trough, which the burstiness tests rely
  // on being deterministic).
  const std::uint64_t phase = t_ % period_ns_;
  const std::uint64_t half = period_ns_ / 2;
  std::int64_t tri_q32;  // [-2^32, 2^32]
  if (phase < half) {
    tri_q32 = static_cast<std::int64_t>(
                  (static_cast<unsigned __int128>(phase) << 33) / half) -
              (1ll << 32);
  } else {
    tri_q32 = (1ll << 32) -
              static_cast<std::int64_t>(
                  (static_cast<unsigned __int128>(phase - half) << 33) /
                  (period_ns_ - half));
  }
  const std::int64_t mod = static_cast<std::int64_t>(
      (static_cast<__int128>(static_cast<std::int64_t>(depth_q32_)) *
       tri_q32) >>
      32);
  const std::uint64_t factor =
      static_cast<std::uint64_t>((1ll << 32) + mod);  // (1 ± depth) in Q32
  const std::uint64_t peak = (1ull << 32) + depth_q32_;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(factor) << 32) / peak);
}

core::Duration ArrivalProcess::pareto_gap() {
  // Bounded-Pareto inversion, entirely in log2 space:
  //   X = min / (1 - U (1 - r))^(1/alpha),  r = (min/max)^alpha
  //     = min * 2^(-log2(d) / alpha),       d = 1 - U (1 - r).
  const std::uint64_t one = 1ull << 32;
  const std::uint64_t u = rng_.next_u64() >> 32;  // Q32 uniform in [0, 1)
  const std::uint64_t d =
      one - static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(u) * (one - r_q32_)) >> 32);
  const std::uint64_t f = (32ull << 32) - fixmath::log2_q32(d);  // -log2 d
  const std::uint64_t s = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(f) * inv_alpha_q32_) >> 32);
  const std::uint64_t n = s >> 32;
  const std::uint64_t frac = s & 0xffffffffull;
  const std::uint64_t m =
      frac == 0 ? (1ull << 63) : fixmath::exp2_frac_q63(frac);
  unsigned __int128 x =
      (static_cast<unsigned __int128>(gap_min_) * m) >> 63;
  x <<= n;
  std::uint64_t gap = x > gap_max_ ? gap_max_ : static_cast<std::uint64_t>(x);
  gap = std::max(gap, gap_min_);
  t_ += gap;
  return gap;
}

core::Duration ArrivalProcess::next_gap() {
  if (kind_ == Arrival::pareto) return pareto_gap();
  if (depth_q32_ == 0) {
    const std::uint64_t gap = std::max<std::uint64_t>(1, exp_gap(mean_gap_ns_));
    t_ += gap;
    return gap;
  }
  // Thinning: draw candidates at the peak rate, accept each with
  // probability lambda(t)/lambda_max; the rejected candidates' gaps
  // accumulate into the returned one.
  core::Duration waited = 0;
  for (;;) {
    const std::uint64_t gap = std::max<std::uint64_t>(1, exp_gap(peak_gap_ns_));
    waited += gap;
    t_ += gap;
    if ((rng_.next_u64() >> 32) < accept_q32()) return waited;
  }
}

// ---------------------------------------------------------------------------
// ZipfPicker
// ---------------------------------------------------------------------------

ZipfPicker::ZipfPicker(std::uint32_t n, double skew) {
  cum_.reserve(n);
  const std::uint64_t s_q32 =
      static_cast<std::uint64_t>(skew * 4294967296.0);
  std::uint64_t total = 0;
  for (std::uint32_t k = 1; k <= n; ++k) {
    std::uint64_t w;
    if (s_q32 == 0 || k == 1) {
      w = 1ull << 32;
    } else {
      // k^-s = 2^-(s * log2 k); clamp to 1 so every key stays reachable.
      const std::uint64_t e = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(s_q32) * fixmath::log2_q32(k)) >>
          32);
      w = std::max<std::uint64_t>(1, fixmath::pow2_neg_q32(e));
    }
    total += w;
    cum_.push_back(total);
  }
}

std::uint32_t ZipfPicker::pick(core::Rng& rng) const {
  const std::uint64_t r = rng.uniform_int(0, cum_.back() - 1);
  return static_cast<std::uint32_t>(
      std::upper_bound(cum_.begin(), cum_.end(), r) - cum_.begin());
}

}  // namespace padico::scenario
