// CDR-style marshalling for the CORBA personality.
//
// CdrOut marshals a whole message into one owned buffer: every put
// appends, and the buffer is posted to the link as one view.  The ORB
// families of the paper differ only in virtual time: the per-byte
// marshal pass that caps Mico and ORBacus in Figure 3 is what
// CostModel::copy_bytes_per_second charges (zero for omniORB); the
// host copy here is the same for every profile.
//
// Wire shapes (host byte order; the simulation never crosses real
// hosts): u32/u64 raw; string = u32 length + bytes (no NUL); octets =
// u32 length + bytes.  CdrIn is the single parser: a sticky ok() flag
// instead of exceptions, and it never reads out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "core/bytes.hpp"

namespace padico::orb {

// Same GCC 12 false-positive diagnostics on std::vector<uint8_t>
// inserts of provably in-bounds sizes as vlink/wire.hpp (PR 105705
// and friends); scoped out of -Werror for this codec only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#pragma GCC diagnostic ignored "-Wstringop-overread"
#endif

class CdrOut {
 public:
  // Every scalar goes through put_raw: a push_back here followed by
  // put_raw's insert draws a false -Wstringop-overread from GCC 12 -O3.
  void put_u8(std::uint8_t v) { put_raw(&v, sizeof(v)); }

  void put_u32(std::uint32_t v) { put_raw(&v, sizeof(v)); }

  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void put_octets(core::ByteView octets) {
    put_u32(static_cast<std::uint32_t>(octets.size()));
    buf_.insert(buf_.end(), octets.begin(), octets.end());
  }

  /// The marshalled message; the CdrOut is empty afterwards.
  core::Bytes take() noexcept { return std::move(buf_); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }

  core::Bytes buf_;
};

class CdrIn {
 public:
  explicit CdrIn(core::ByteView in) : in_(in) {}

  /// False once any get ran past the buffer; subsequent gets return
  /// zero values and keep ok() false.
  bool ok() const noexcept { return ok_; }

  /// Whole message consumed, with no error on the way.
  bool done() const noexcept { return ok_ && pos_ == in_.size(); }

  std::uint8_t get_u8() {
    std::uint8_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::string get_string() {
    const core::ByteView v = get_counted();
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  /// View into the underlying buffer (valid while it lives).
  core::ByteView get_octets() { return get_counted(); }

 private:
  void get_raw(void* out, std::size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return;
    }
    std::memcpy(out, in_.data() + pos_, n);
    pos_ += n;
  }

  core::ByteView get_counted() {
    const std::uint32_t n = get_u32();
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    const core::ByteView v = in_.subview(pos_, n);
    pos_ += n;
    return v;
  }

  core::ByteView in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace padico::orb
