// 64-byte-aligned growable buffer for the apply hot arrays.
//
// std::vector's default allocator gives no alignment guarantee past
// alignof(max_align_t). AlignedBuffer allocates 64-byte-aligned storage
// (full cache line, the widest vector register) and zero-fills it on the
// thread that grows it, so first touch puts the pages on that thread's
// NUMA node: ApplyChain::finalize and the workspace sizing run on the
// engine worker that traverses the arrays.
//
// Contents are NOT preserved across resize: every user overwrites the
// buffer before reading it (the buffers are per-apply scratch or packed
// once at finalize), so the copy would be waste. Not copyable; movable.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace parlap::kernels {

inline constexpr std::size_t kBufferAlign = 64;

template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedBuffer holds flat numeric data only");

 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { deallocate(); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      deallocate();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  /// Grows (or shrinks the logical size) to `n` elements. On growth the
  /// old allocation is dropped, a fresh aligned one is made, and this
  /// thread zero-fills it. Shrinking only adjusts size(); previous
  /// contents are never carried over either way.
  void resize(std::size_t n) {
    if (n > capacity_) {
      deallocate();
      data_ = static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kBufferAlign}));
      capacity_ = n;
      std::memset(data_, 0, n * sizeof(T));
    }
    size_ = n;
  }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

 private:
  void deallocate() noexcept {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kBufferAlign});
      data_ = nullptr;
    }
    capacity_ = 0;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace parlap::kernels
