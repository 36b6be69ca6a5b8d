// Byte containers for the communication stack.
//
// `Bytes` owns storage, `ByteView` is a borrowed span, `SharedBytes` is
// an immutable buffer many holders share by reference, and `BytesPool`
// recycles frame-sized `Bytes`.
//
// A writer picks how its bytes travel by the type it hands the stack:
// a `ByteView` borrows storage the caller may reuse, so the stack
// copies it into a frame; a `SharedBytes` never changes, so the stack
// carries it by reference from the writer to the reading link.  A
// message made of parts (a header and its payload) is built in one
// buffer first and handed over as one `ByteView`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace padico::core {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over a contiguous byte range.
class ByteView {
 public:
  constexpr ByteView() = default;
  constexpr ByteView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  constexpr const std::uint8_t* data() const noexcept { return data_; }
  constexpr std::size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr const std::uint8_t* begin() const noexcept { return data_; }
  constexpr const std::uint8_t* end() const noexcept { return data_ + size_; }
  constexpr std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  constexpr ByteView subview(std::size_t off, std::size_t n) const {
    return ByteView(data_ + off, n);
  }

  Bytes to_bytes() const { return Bytes(begin(), end()); }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

inline ByteView view_of(const Bytes& b) { return ByteView(b.data(), b.size()); }

inline ByteView view_of(const std::string& s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// C string literal view; the terminating NUL is not included.
inline ByteView view_of(const char* s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s), std::strlen(s));
}

inline ByteView view_of(const void* p, std::size_t n) {
  return ByteView(static_cast<const std::uint8_t*>(p), n);
}

/// An immutable byte buffer shared by reference: an 8-byte handle to a
/// refcounted block holding a `Bytes` that never changes after
/// construction.  A copy shares the block, a move steals it, and the
/// last handle frees it.  A default handle is empty.
///
/// The count is not atomic: one engine runs on one thread, and every
/// holder of a block lives on that engine.  A hand-off across threads
/// (e.g. between parallel engines) must copy the bytes out, or switch
/// this count to an atomic one.
///
/// The handle stays one pointer wide on purpose: simnet's delivery
/// closure, NetDriver's paced closure, SanDriver's injection closure
/// and MadIO's dispatch closure each carry one next to a `Bytes`, and
/// 48 B is EventFn's inline budget (a `std::shared_ptr` would cost one
/// heap allocation per frame).
class SharedBytes {
 public:
  SharedBytes() noexcept = default;
  explicit SharedBytes(Bytes bytes) : block_(new Block{1, std::move(bytes)}) {}
  SharedBytes(const SharedBytes& other) noexcept : block_(other.block_) {
    if (block_) ++block_->refs;
  }
  SharedBytes(SharedBytes&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  // Copy-and-swap: self-assignment (copy or move) leaves the handle as
  // it was.
  SharedBytes& operator=(const SharedBytes& other) noexcept {
    SharedBytes(other).swap(*this);
    return *this;
  }
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    SharedBytes(std::move(other)).swap(*this);
    return *this;
  }
  ~SharedBytes() {
    if (block_ && --block_->refs == 0) delete block_;
  }

  void swap(SharedBytes& other) noexcept { std::swap(block_, other.block_); }

  ByteView view() const noexcept {
    return block_ ? view_of(block_->bytes) : ByteView{};
  }
  const std::uint8_t* data() const noexcept { return view().data(); }
  std::size_t size() const noexcept { return view().size(); }
  bool empty() const noexcept { return size() == 0; }

  /// Handles sharing this block (0 for an empty handle).
  std::size_t use_count() const noexcept { return block_ ? block_->refs : 0; }

 private:
  struct Block {
    std::size_t refs;
    const Bytes bytes;
  };
  Block* block_ = nullptr;
};

static_assert(sizeof(SharedBytes) == sizeof(void*),
              "SharedBytes must stay one pointer wide (see above)");

/// Recycler of frame-sized `Bytes` buffers.
///
/// The TX path builds one owned `Bytes` per wire frame (a 24-byte
/// header plus one application write: a few hundred bytes for an RPC,
/// a whole 256 KiB reply for bulk traffic) and the receiving link
/// adopts that buffer as its stream buffer.  What the adoption
/// displaces, the frame itself once the link's reader consumed it, or
/// a frame no link adopted comes back here.  The pool keeps that
/// capacity alive: `acquire_capacity` hands a buffer back
/// empty with room for `n` bytes (the encoder appends, so nothing is
/// zero-filled first), `release` returns it.  Bounded both ways —
/// oversized buffers are never hoarded and the free list never grows
/// past `kMaxFree` — so a burst can't turn the pool into a leak.
///
/// Lifetime rules (see DESIGN.md "Engine internals"): a released
/// buffer must have no live views into it, and the pool must outlive
/// every buffer it may receive — in practice it lives on the Engine
/// (`Engine::bytes_pool()`), which outlives all drivers by contract.
class BytesPool {
 public:
  /// Largest capacity worth recycling (MTU 1500 + headers, rounded).
  static constexpr std::size_t kMaxPooledCapacity = 4096;
  /// Free-list bound: beyond this, released buffers are simply freed.
  /// Sized for the in-flight frame population of a 10k-node scenario
  /// burst — a drain releases a whole bucket's frames at once, and a
  /// bound that's too tight turns those into misses on the next burst.
  static constexpr std::size_t kMaxFree = 2048;

  BytesPool() { free_.reserve(kMaxFree); }
  BytesPool(const BytesPool&) = delete;
  BytesPool& operator=(const BytesPool&) = delete;

  /// An empty buffer with capacity for at least `n` bytes.  Recycles a
  /// pooled buffer when `n` is poolable and one is free.
  Bytes acquire_capacity(std::size_t n) {
    Bytes b;
    if (!free_.empty() && n <= kMaxPooledCapacity) {
      b = std::move(free_.back());
      free_.pop_back();
      b.clear();
      ++hits_;
    } else {
      ++misses_;
    }
    b.reserve(n);
    return b;
  }

  /// Return a buffer to the pool (or drop it if oversized / full).
  void release(Bytes b) noexcept {
    if (b.capacity() == 0 ||
        b.capacity() > kMaxPooledCapacity || free_.size() >= kMaxFree) {
      return;  // freed on scope exit
    }
    free_.push_back(std::move(b));
  }

  std::size_t pooled() const noexcept { return free_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  std::vector<Bytes> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace padico::core
