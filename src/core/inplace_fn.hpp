// InplaceFn — a small-buffer-optimised move-only callable.
//
// The engine dispatches tens of millions of events per second of wall
// time; `std::function` costs a heap allocation for any capture larger
// than its ~16-byte SBO, and every hot closure in this codebase (a
// `this` pointer, two node ids and a `Bytes` handle ≈ 40 bytes) misses
// it.  InplaceFn fixes the inline budget at `InlineSize` bytes
// (default 48 — sized to the largest hot closure, see DESIGN.md
// "Engine internals") and only falls back to the heap for oversized or
// potentially-throwing-move captures.
//
// Contract:
//   * move-only (events are single-shot; copying a queued closure is
//     always a bug),
//   * construction COPIES from an lvalue callable and MOVES from an
//     rvalue, like std::function; `emplace` does the same into an
//     empty InplaceFn, which is how the engine's queue builds a
//     closure straight into its event node,
//   * a callable is stored inline iff it fits, is no more aligned than
//     max_align_t, and is nothrow-move-constructible — the move must
//     not throw because InplaceFn's own moves are noexcept and
//     relocate the callable,
//   * invoking an empty InplaceFn is undefined (the engine never
//     stores empty events).
//
// The object is 56 bytes of data in a 64-byte footprint: the event
// queue's nodes put two 32-bit links in that tail padding.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace padico::core {

template <std::size_t InlineSize = 48>
class InplaceFn {
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= InlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

 public:
  static constexpr std::size_t kInlineSize = InlineSize;

  InplaceFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InplaceFn(F&& f) {  // NOLINT: implicit, like std::function
    construct<D>(std::forward<F>(f));
  }

  InplaceFn(InplaceFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(other.storage_, storage_);
      other.vt_ = nullptr;
    }
  }

  InplaceFn& operator=(InplaceFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(other.storage_, storage_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InplaceFn(const InplaceFn&) = delete;
  InplaceFn& operator=(const InplaceFn&) = delete;

  ~InplaceFn() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  /// Build `f` in this InplaceFn, which must be empty.  An InplaceFn
  /// argument must be an rvalue and is moved in, never wrapped.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InplaceFn>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "an InplaceFn is moved in, never copied");
      *this = std::move(f);
    } else {
      construct<D>(std::forward<F>(f));
    }
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() { vt_->invoke(storage_); }

 private:
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      vt_ = &inline_vtable<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      vt_ = &heap_vtable<D>;
    }
  }

  struct VTable {
    void (*invoke)(void* obj);
    // Move-construct the callable from `src` into `dst`, then destroy
    // the `src` copy.  Both point at InplaceFn storage.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* obj) noexcept;
  };

  template <typename D>
  static void inline_invoke(void* obj) {
    (*std::launder(static_cast<D*>(obj)))();
  }
  template <typename D>
  static void inline_relocate(void* src, void* dst) noexcept {
    D* s = std::launder(static_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <typename D>
  static void inline_destroy(void* obj) noexcept {
    std::launder(static_cast<D*>(obj))->~D();
  }

  template <typename D>
  static void heap_invoke(void* obj) {
    (**std::launder(static_cast<D**>(obj)))();
  }
  static void heap_relocate_ptr(void* src, void* dst) noexcept {
    std::memcpy(dst, src, sizeof(void*));
  }
  template <typename D>
  static void heap_destroy(void* obj) noexcept {
    delete *std::launder(static_cast<D**>(obj));
  }

  template <typename D>
  static constexpr VTable inline_vtable = {&inline_invoke<D>,
                                           &inline_relocate<D>,
                                           &inline_destroy<D>};
  template <typename D>
  static constexpr VTable heap_vtable = {&heap_invoke<D>, &heap_relocate_ptr,
                                         &heap_destroy<D>};

  alignas(std::max_align_t) unsigned char storage_[InlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace padico::core
