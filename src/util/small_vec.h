// Small-size-optimized vector for trivially copyable simulator types.
//
// Version chains carry per-version metadata sets (COPS-SNOW's per-reader
// exclusions).  Most protocols leave them empty, while a COPS-SNOW version
// can hide from hundreds of readers; std::set pays a heap node per element
// and a pointer chase per lookup, and every COW chain clone copies those
// nodes.  SmallVec keeps up to N elements inline in the owning object;
// larger ones spill to one heap array (through util::Pool for pooled
// sizes).
//
// Deliberately minimal: trivially copyable element types only (ids,
// timestamps), grow-only capacity, plus sorted-insert helpers so a SmallVec
// can stand in for an ordered set with identical iteration order — which is
// what keeps digest bytes unchanged when replacing std::set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "util/pool.h"

namespace discs::util {

template <class T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for trivially copyable types");

 public:
  SmallVec() = default;
  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVec(SmallVec&& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.cap_ = N;
      other.size_ = 0;
    } else {
      assign(other.begin(), other.end());
      other.size_ = 0;
    }
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      new (this) SmallVec(std::move(other));
    }
    return *this;
  }
  ~SmallVec() { release(); }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ * 2);
    data()[size_++] = v;
  }

  /// Replaces the contents with [first, last), in at most one allocation
  /// of exactly the range's size.
  template <class It>
  void assign(It first, It last) {
    clear();
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n > cap_) grow(n);
    std::copy(first, last, data());
    size_ = n;
  }

  /// Ordered-set operations: keep elements sorted and unique, so iteration
  /// (and therefore any digest built from it) matches std::set exactly.
  void insert_sorted_unique(const T& v) {
    T* pos = std::lower_bound(begin(), end(), v);
    if (pos != end() && *pos == v) return;
    const std::size_t at = static_cast<std::size_t>(pos - begin());
    if (size_ == cap_) grow(cap_ * 2);
    T* base = data();
    std::memmove(base + at + 1, base + at, (size_ - at) * sizeof(T));
    base[at] = v;
    ++size_;
  }
  bool contains_sorted(const T& v) const {
    return std::binary_search(begin(), end(), v);
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  bool spilled() const { return data_ != nullptr; }
  T* data() { return spilled() ? data_ : inline_storage(); }
  const T* data() const { return spilled() ? data_ : inline_storage(); }
  T* inline_storage() { return reinterpret_cast<T*>(inline_); }
  const T* inline_storage() const {
    return reinterpret_cast<const T*>(inline_);
  }

  void grow(std::size_t cap) {
    T* fresh = static_cast<T*>(Pool::allocate(cap * sizeof(T)));
    std::memcpy(fresh, data(), size_ * sizeof(T));
    release();
    data_ = fresh;
    cap_ = cap;
  }
  void release() {
    if (spilled()) {
      Pool::deallocate(data_, cap_ * sizeof(T));
      data_ = nullptr;
      cap_ = N;
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = nullptr;  ///< null while inline
  std::size_t cap_ = N;
  std::size_t size_ = 0;
};

}  // namespace discs::util
