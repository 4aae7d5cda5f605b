// Cache-line geometry for the real-thread runtime: contended atomics (toggle
// bits, MCS tails, per-output counters) are padded to avoid false sharing,
// which would otherwise dominate the throughput benchmarks.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace cnet {

// std::hardware_destructive_interference_size is still flaky across
// toolchains (ABI warnings on GCC); 64 bytes is correct for x86-64 and most
// AArch64 parts, and harmless elsewhere.
inline constexpr std::size_t kCacheLine = 64;

/// A value of T alone on its own cache line(s).
template <typename T>
struct alignas(kCacheLine) Padded {
  T value{};

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }
};

/// A fixed-size array of value-initialized T at alignof(T), carved from one
/// ordinary allocation. Aligned operator new would do the same, but glibc
/// serves it from memalign, which skips the thread's malloc cache and
/// splits each block into misaligned scraps: an actor runtime that did so
/// per actor left its constructing thread's heap more fragmented with
/// every runtime it built and tore down.
template <typename T>
class AlignedArray {
 public:
  AlignedArray() = default;
  explicit AlignedArray(std::size_t n)
      : block_(std::make_unique<std::byte[]>(n * sizeof(T) + alignof(T))),
        size_(n) {
    void* at = block_.get();
    std::size_t space = n * sizeof(T) + alignof(T);
    data_ = static_cast<T*>(std::align(alignof(T), n * sizeof(T), at, space));
    std::uninitialized_value_construct_n(data_, n);
  }
  ~AlignedArray() { std::destroy_n(data_, size_); }

  AlignedArray(AlignedArray&& other) noexcept { *this = std::move(other); }
  AlignedArray& operator=(AlignedArray&& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }

  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }

 private:
  std::unique_ptr<std::byte[]> block_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace cnet
