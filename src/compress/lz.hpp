// padico::compress — the AdOC codec family (paper section 3.2).
//
// Three levels trade CPU for wire bytes, mirroring the AdOC adapter's
// choice set: `stored` is a straight copy, `rle` a PackBits-style
// run-length pass, and `lz` a small LZSS (4 KiB window, 3..18 byte
// matches).  All decoders are bounds-checked and return nullopt on any
// malformed input — adapter receive paths feed them wire bytes.
//
// The codecs run in *real* time (bench_micro_cpu measures them), but
// the simulation charges *virtual* CPU through encode_cost/decode_cost
// so an AdOC run is deterministic regardless of the host machine.
#pragma once

#include <cstdint>
#include <optional>

#include "core/bytes.hpp"
#include "core/time.hpp"

namespace padico::compress {

enum class Level : std::uint8_t { stored = 0, rle = 1, lz = 2 };

inline constexpr std::uint8_t kLevelCount = 3;

/// PackBits-style RLE: a control byte `c` introduces either a literal
/// run (`c < 128`: c+1 literal bytes follow) or a repeat run
/// (`c >= 128`: one byte repeated c-126 times, runs of 3..129).
core::Bytes rle_encode(core::ByteView raw);
std::optional<core::Bytes> rle_decode(core::ByteView enc);

/// LZSS: groups of 8 items after a flag byte; flag bit set = literal
/// byte, clear = 2-byte match token (12-bit window offset, 4-bit
/// length encoding matches of 3..18 bytes; window 4096).
core::Bytes lz_encode(core::ByteView raw);
std::optional<core::Bytes> lz_decode(core::ByteView enc);

/// The level dispatch: encode `raw` at `level` (`stored` copies it),
/// and decode bytes `encode` made at `level`.  The framing (level, raw
/// and encoded lengths) is the caller's: AdOC's frame header carries
/// it.  decode() returns nullopt for an unknown level or malformed
/// input.
core::Bytes encode(Level level, core::ByteView raw);
std::optional<core::Bytes> decode(Level level, core::ByteView enc);

/// Virtual CPU charged per encode/decode, calibrated to paper-era
/// hardware (stored ~2 GB/s memcpy, rle ~400/800 MB/s, lz ~18/80 MB/s
/// encode/decode) plus a 1 us per-call fixed cost.
core::Duration encode_cost(Level level, std::size_t raw_bytes);
core::Duration decode_cost(Level level, std::size_t raw_bytes);

}  // namespace padico::compress
