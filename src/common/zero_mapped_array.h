// ZeroMappedArray: a fixed-size array of trivial values backed by its own
// private anonymous memory mapping. Every element reads as zero until
// written, and the kernel commits each page on its first write, so a
// pool-sized buffer costs resident memory only for the pages a run touches.
//
// A mapping rather than calloc: glibc serves large requests lazily only
// above its dynamic mmap threshold (up to 32 MiB), and below it recycles
// heap memory it must zero itself. The mapping never touches the heap.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace aptserve {

template <typename T>
class ZeroMappedArray {
  static_assert(std::is_trivial_v<T>, "zero bytes must be a valid T");

 public:
  ZeroMappedArray() = default;

  /// Maps `n` zero elements; aborts if the kernel refuses the mapping.
  explicit ZeroMappedArray(size_t n) : size_(n) {
    if (n == 0) return;
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    APT_CHECK_MSG(p != MAP_FAILED, "mmap of a zero-on-demand array failed");
    data_ = static_cast<T*>(p);
  }

  ~ZeroMappedArray() { Unmap(); }

  ZeroMappedArray(ZeroMappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  ZeroMappedArray& operator=(ZeroMappedArray&& other) noexcept {
    if (this != &other) {
      Unmap();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ZeroMappedArray(const ZeroMappedArray&) = delete;
  ZeroMappedArray& operator=(const ZeroMappedArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  void Unmap() {
    if (data_ != nullptr) munmap(data_, size_ * sizeof(T));
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace aptserve
