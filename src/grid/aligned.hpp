// 64-byte-aligned, zero-initialized heap buffer (RAII).
//
// Every grid in the library over-aligns its storage so vector loads/stores
// never split cache lines, and pads both ends so the kernels' grouped
// bottom-vector loads may harmlessly read a few elements past the logical
// domain (see grid1d.hpp).
//
// Storage comes from std::calloc, over-allocated by kAlignment and aligned
// by hand.  glibc serves large blocks with fresh mmapped pages it does not
// write, so a buffer costs only the pages its users touch, and each page is
// first-touched by whichever worker writes it rather than by the allocating
// thread.  Recycled heap blocks are zeroed by calloc, so the contents are
// exactly T{} either way: all-zero bytes for every element type the library
// stores (double, float, int32_t, simd::NativeVec).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

namespace tvs::grid {

inline constexpr std::size_t kAlignment = 64;

template <class T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "AlignedBuffer hands out zeroed bytes as T and never runs "
                "destructors");

 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t n) : n_(n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kAlignment) / sizeof(T))
      throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    std::size_t space = bytes + kAlignment;
    raw_ = zeroed(space);
    if (raw_ == nullptr) throw std::bad_alloc();
    void* p = raw_;
    p_ = static_cast<T*>(std::align(kAlignment, bytes, p, space));
  }
  ~AlignedBuffer() { reset(); }

  AlignedBuffer(AlignedBuffer&& o) noexcept
      : n_(o.n_), p_(o.p_), raw_(o.raw_) {
    o.release();
  }
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      reset();
      n_ = o.n_;
      p_ = o.p_;
      raw_ = o.raw_;
      o.release();
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  T* data() { return p_; }
  const T* data() const { return p_; }
  std::size_t size() const { return n_; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

 private:
  // The one sanctioned malloc-family pair in the tree: operator new cannot
  // hand out untouched zero pages, and zero-on-demand is the point here.
  // NOLINTBEGIN(cppcoreguidelines-no-malloc)
  static void* zeroed(std::size_t bytes) { return std::calloc(bytes, 1); }
  static void release_raw(void* raw) { std::free(raw); }
  // NOLINTEND(cppcoreguidelines-no-malloc)

  void reset() {
    if (raw_ != nullptr) release_raw(raw_);
    release();
  }
  void release() {
    n_ = 0;
    p_ = nullptr;
    raw_ = nullptr;
  }

  std::size_t n_ = 0;
  T* p_ = nullptr;
  void* raw_ = nullptr;  // calloc's pointer, p_ rounded up to kAlignment
};

}  // namespace tvs::grid
