// Launch-record arena: a chunked bump allocator for the short-lived,
// trivially-destructible records the simulator produces at high rate —
// per-warp trace accesses, per-warp totals, and TimelineItem dependency
// lists. One reset() recycles every chunk (BufferPool-style: capacity is
// retained, nothing returns to the heap), so a warm capture performs no
// allocations on the launch hot path no matter how many signals it runs.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/types.hpp"

namespace cusfft::cusim {

class LaunchArena {
 public:
  struct Stats {
    u64 chunks = 0;          // chunks currently owned (live capacity)
    u64 bytes_reserved = 0;  // summed chunk capacity
    u64 bytes_used = 0;      // bytes handed out since the last reset
    u64 resets = 0;          // recycling events (per launch / per capture)
  };

  explicit LaunchArena(std::size_t first_chunk_bytes = 16 * 1024)
      : first_chunk_bytes_(first_chunk_bytes) {}

  /// Bump-allocates `bytes` aligned to `align` (a power of two). Never
  /// returns nullptr; grows by doubling chunks when the active chunk is
  /// exhausted.
  void* allocate(std::size_t bytes, std::size_t align) {
    if (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      const std::size_t at = (c.used + (align - 1)) & ~(align - 1);
      if (at + bytes <= c.cap) {
        c.used = at + bytes;
        bytes_used_ += bytes;
        return c.data.get() + at;
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Typed array allocation. T must be trivially destructible: reset()
  /// drops storage without running destructors.
  template <typename T>
  T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (count == 0) return nullptr;
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Recycles every chunk: capacity is kept, contents are abandoned. All
  /// pointers handed out before the reset become invalid.
  void reset() {
    for (std::size_t i = 0; i <= active_ && i < chunks_.size(); ++i)
      chunks_[i].used = 0;
    active_ = 0;
    bytes_used_ = 0;
    ++resets_;
  }

  Stats stats() const {
    Stats s;
    s.chunks = chunks_.size();
    for (const Chunk& c : chunks_) s.bytes_reserved += c.cap;
    s.bytes_used = bytes_used_;
    s.resets = resets_;
    return s;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // index of the chunk currently bumping
  std::size_t first_chunk_bytes_;
  u64 bytes_used_ = 0;
  u64 resets_ = 0;
};

/// Minimal growable array on a LaunchArena — the launch hot path's
/// replacement for std::vector. Grow-by-doubling copies into fresh arena
/// space and abandons the old block (reclaimed wholesale by the next
/// arena reset). Elements must be trivially copyable.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ArenaVec() = default;
  explicit ArenaVec(LaunchArena* arena) : arena_(arena) {}

  /// Rebinds to `arena` and empties the vector (storage belongs to the
  /// previous arena generation; do not touch it).
  void reset(LaunchArena* arena) {
    arena_ = arena;
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }

  void append(const T* src, std::size_t count) {
    if (count == 0) return;
    if (size_ + count > cap_) grow(size_ + count);
    std::memcpy(data_ + size_, src, count * sizeof(T));
    size_ += count;
  }

  void clear() { size_ = 0; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  // Out of line: push_back's fast path stays small enough to inline into
  // the per-access tracing hooks.
  [[gnu::noinline]] void grow(std::size_t need) {
    std::size_t cap = cap_ == 0 ? 16 : cap_ * 2;
    while (cap < need) cap *= 2;
    T* fresh = arena_->alloc_array<T>(cap);
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    cap_ = cap;
  }

  LaunchArena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace cusfft::cusim
