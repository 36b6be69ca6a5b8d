#include "compress/lz.hpp"

#include <algorithm>
#include <array>

namespace padico::compress {

namespace {

constexpr std::size_t kLzWindow = 4096;
constexpr std::size_t kLzMinMatch = 3;
constexpr std::size_t kLzMaxMatch = 18;

}  // namespace

core::Bytes rle_encode(core::ByteView raw) {
  core::Bytes out;
  out.reserve(raw.size() + raw.size() / 127 + 1);
  std::size_t i = 0;
  while (i < raw.size()) {
    // Measure the repeat run at i.
    std::size_t run = 1;
    while (i + run < raw.size() && raw[i + run] == raw[i] && run < 129) ++run;
    if (run >= 3) {
      out.push_back(static_cast<std::uint8_t>(128 + run - 3));
      out.push_back(raw[i]);
      i += run;
      continue;
    }
    // Literal run: until the next >=3 repeat or 128 bytes.
    std::size_t lit = 0;
    while (i + lit < raw.size() && lit < 128) {
      std::size_t r = 1;
      while (i + lit + r < raw.size() && raw[i + lit + r] == raw[i + lit] &&
             r < 3)
        ++r;
      if (r >= 3) break;
      ++lit;
    }
    out.push_back(static_cast<std::uint8_t>(lit - 1));
    out.insert(out.end(), raw.begin() + i, raw.begin() + i + lit);
    i += lit;
  }
  return out;
}

std::optional<core::Bytes> rle_decode(core::ByteView enc) {
  core::Bytes out;
  std::size_t i = 0;
  while (i < enc.size()) {
    const std::uint8_t c = enc[i++];
    if (c < 128) {
      const std::size_t lit = static_cast<std::size_t>(c) + 1;
      if (i + lit > enc.size()) return std::nullopt;
      out.insert(out.end(), enc.begin() + i, enc.begin() + i + lit);
      i += lit;
    } else {
      if (i >= enc.size()) return std::nullopt;
      const std::size_t run = static_cast<std::size_t>(c) - 128 + 3;
      out.insert(out.end(), run, enc[i++]);
    }
  }
  return out;
}

core::Bytes lz_encode(core::ByteView raw) {
  core::Bytes out;
  out.reserve(raw.size() + raw.size() / 8 + 1);
  // Hash chain over 3-byte prefixes: head[h] is the most recent
  // position with that hash, chained through prev[pos % window].
  constexpr std::size_t kHashSize = 1 << 12;
  std::array<std::int32_t, kHashSize> head;
  head.fill(-1);
  std::vector<std::int32_t> prev(std::min(raw.size(), kLzWindow) + 1, -1);
  auto hash3 = [&](std::size_t p) {
    const std::uint32_t v = static_cast<std::uint32_t>(raw[p]) |
                            (static_cast<std::uint32_t>(raw[p + 1]) << 8) |
                            (static_cast<std::uint32_t>(raw[p + 2]) << 16);
    return (v * 2654435761u) >> 20;
  };

  std::size_t i = 0;
  while (i < raw.size()) {
    std::size_t flag_pos = out.size();
    out.push_back(0);
    std::uint8_t flags = 0;
    for (int bit = 0; bit < 8 && i < raw.size(); ++bit) {
      std::size_t best_len = 0, best_off = 0;
      if (i + kLzMinMatch <= raw.size()) {
        const std::size_t h = hash3(i);
        std::int32_t cand = head[h];
        int tries = 16;
        while (cand >= 0 && tries-- > 0 &&
               i - static_cast<std::size_t>(cand) <= kLzWindow) {
          const std::size_t c = static_cast<std::size_t>(cand);
          const std::size_t limit = std::min(kLzMaxMatch, raw.size() - i);
          std::size_t len = 0;
          while (len < limit && raw[c + len] == raw[i + len]) ++len;
          if (len > best_len) {
            best_len = len;
            best_off = i - c;
            if (len == kLzMaxMatch) break;
          }
          cand = prev[c % prev.size()];
        }
      }
      auto insert_pos = [&](std::size_t p) {
        if (p + kLzMinMatch > raw.size()) return;
        const std::size_t h = hash3(p);
        prev[p % prev.size()] = head[h];
        head[h] = static_cast<std::int32_t>(p);
      };
      if (best_len >= kLzMinMatch) {
        // Token: offset 1..4096 stored as off-1 in 12 bits, length
        // 3..18 stored as len-3 in 4 bits.
        const std::uint16_t tok = static_cast<std::uint16_t>(
            ((best_off - 1) << 4) | (best_len - kLzMinMatch));
        out.push_back(static_cast<std::uint8_t>(tok));
        out.push_back(static_cast<std::uint8_t>(tok >> 8));
        for (std::size_t k = 0; k < best_len; ++k) insert_pos(i + k);
        i += best_len;
      } else {
        flags = static_cast<std::uint8_t>(flags | (1u << bit));
        out.push_back(raw[i]);
        insert_pos(i);
        ++i;
      }
    }
    out[flag_pos] = flags;
  }
  return out;
}

std::optional<core::Bytes> lz_decode(core::ByteView enc) {
  core::Bytes out;
  std::size_t i = 0;
  while (i < enc.size()) {
    const std::uint8_t flags = enc[i++];
    for (int bit = 0; bit < 8 && i < enc.size(); ++bit) {
      if (flags & (1u << bit)) {
        out.push_back(enc[i++]);
      } else {
        if (i + 2 > enc.size()) return std::nullopt;
        const std::uint16_t tok = static_cast<std::uint16_t>(
            enc[i] | (static_cast<std::uint16_t>(enc[i + 1]) << 8));
        i += 2;
        const std::size_t off = static_cast<std::size_t>(tok >> 4) + 1;
        const std::size_t len = (tok & 0xf) + kLzMinMatch;
        if (off > out.size()) return std::nullopt;
        // Byte-at-a-time: overlapping matches (off < len) replicate.
        for (std::size_t k = 0; k < len; ++k)
          out.push_back(out[out.size() - off]);
      }
    }
  }
  return out;
}

core::Bytes encode(Level level, core::ByteView raw) {
  switch (level) {
    case Level::stored: return raw.to_bytes();
    case Level::rle: return rle_encode(raw);
    case Level::lz: return lz_encode(raw);
  }
  return raw.to_bytes();
}

std::optional<core::Bytes> decode(Level level, core::ByteView enc) {
  switch (level) {
    case Level::stored: return enc.to_bytes();
    case Level::rle: return rle_decode(enc);
    case Level::lz: return lz_decode(enc);
  }
  return std::nullopt;
}

namespace {
// Virtual bytes/second for the cost model (paper-era CPU).
constexpr double kEncodeRate[kLevelCount] = {2.0e9, 400.0e6, 18.0e6};
constexpr double kDecodeRate[kLevelCount] = {2.0e9, 800.0e6, 80.0e6};
constexpr core::Duration kFixedCost = core::microseconds(1);

core::Duration cost(double rate, std::size_t n) {
  return kFixedCost +
         static_cast<core::Duration>(static_cast<double>(n) * 1e9 / rate);
}
}  // namespace

core::Duration encode_cost(Level level, std::size_t raw_bytes) {
  return cost(kEncodeRate[static_cast<std::size_t>(level)], raw_bytes);
}

core::Duration decode_cost(Level level, std::size_t raw_bytes) {
  return cost(kDecodeRate[static_cast<std::size_t>(level)], raw_bytes);
}

}  // namespace padico::compress
