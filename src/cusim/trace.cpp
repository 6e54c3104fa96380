#include "cusim/trace.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace cusfft::cusim {

namespace {

constexpr u64 kNoSeg = ~u64{0};  // no segment address reaches 2^64 - 1
constexpr std::size_t kInitialSegCapacity = 256;

std::size_t mix(u64 key) {
  const u64 h = key * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

std::size_t seg_hash(u32 slot, u64 seg) {
  return mix(seg ^ (static_cast<u64>(slot) << 40));
}

}  // namespace

void WarpTracer::reset(std::size_t transaction_bytes, LaunchArena* arena) {
  if (!std::has_single_bit(transaction_bytes))
    throw std::invalid_argument(
        "WarpTracer: transaction size must be a power of two");
  accesses_.reset(arena);
  atomics_.reset(arena);
  max_slot_ = 0;
  shared_ = 0;
  tx_bytes_ = transaction_bytes;
  tx_shift_ = static_cast<unsigned>(std::countr_zero(transaction_bytes));
}

void WarpTracer::clear() {
  accesses_.clear();
  atomics_.clear();
  max_slot_ = 0;
  shared_ = 0;
}

bool WarpTracer::insert_seg(u32 slot, u64 seg) {
  if (2 * (seg_set_live_ + 1) > seg_set_.size()) grow_seg_set();
  const std::size_t mask = seg_set_.size() - 1;
  for (std::size_t i = seg_hash(slot, seg) & mask;; i = (i + 1) & mask) {
    SegEntry& e = seg_set_[i];
    if (e.stamp != stamp_) {
      e = SegEntry{seg, slot, stamp_};
      ++seg_set_live_;
      return true;
    }
    if (e.seg == seg && e.slot == slot) return false;
  }
}

void WarpTracer::grow_seg_set() {
  const std::vector<SegEntry> old = std::move(seg_set_);
  seg_set_.assign(std::max(kInitialSegCapacity, 2 * old.size()),
                  SegEntry{0, 0, 0});
  const std::size_t mask = seg_set_.size() - 1;
  for (const SegEntry& e : old) {
    if (e.stamp != stamp_) continue;
    std::size_t i = seg_hash(e.slot, e.seg) & mask;
    while (seg_set_[i].stamp == stamp_) i = (i + 1) & mask;
    seg_set_[i] = e;
  }
}

WarpTotals WarpTracer::finalize() {
  WarpTotals out;
  out.shared_accesses = shared_;
  if (accesses_.empty()) return out;

  // A fresh stamp empties the segment set; stamp 0 marks never-written
  // entries, so on wrap-around the table is wiped once.
  if (++stamp_ == 0) {
    std::fill(seg_set_.begin(), seg_set_.end(), SegEntry{0, 0, 0});
    stamp_ = 1;
  }
  seg_set_live_ = 0;
  slots_.assign(static_cast<std::size_t>(max_slot_) + 1,
                SlotState{kNoSeg, 0, 0});

  for (const Access& a : accesses_) {
    SlotState& s = slots_[a.slot];
    s.bytes += a.bytes;
    const u64 first = a.addr >> tx_shift_;
    const u64 last = (a.addr + a.bytes - 1) >> tx_shift_;
    for (u64 seg = first; seg <= last; ++seg) {
      if (seg == s.last_seg) continue;
      s.last_seg = seg;
      if (insert_seg(a.slot, seg)) ++s.tx;
    }
  }

  // Every total is an integer-valued sum, so the slot order of the fold
  // does not affect the result.
  out.atomic_ops = static_cast<double>(atomics_.size());
  for (const SlotState& s : slots_) {
    if (s.tx == 0) continue;  // slot never accessed by this warp
    const double tx = static_cast<double>(s.tx);
    const double bytes = static_cast<double>(s.bytes);
    const double min_tx =
        std::max(1.0, std::ceil(bytes / static_cast<double>(tx_bytes_)));
    out.useful_bytes += bytes;
    if (tx <= 2.0 * min_tx)
      out.coalesced_tx += tx;
    else
      out.random_tx += tx;
  }
  return out;
}

void AtomicConflictTable::add(u64 addr, u32 count) {
  if (2 * (used_.size() + 1) > table_.size()) grow();
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = mix(addr) & mask;; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (e.stamp != stamp_) {
      e = Entry{addr, count, stamp_};
      used_.push_back(static_cast<u32>(i));
      max_ = std::max(max_, count);
      return;
    }
    if (e.addr == addr) {
      e.count += count;
      max_ = std::max(max_, e.count);
      return;
    }
  }
}

void AtomicConflictTable::add_all(std::span<const u64> addrs) {
  constexpr std::size_t kAhead = 8;
  // Room for the whole batch up front, so the table (and the prefetched
  // slots) cannot move mid-batch.
  while (2 * (used_.size() + addrs.size()) > table_.size()) grow();
  const std::size_t mask = table_.size() - 1;
  for (std::size_t j = 0; j < addrs.size(); ++j) {
    if (j + kAhead < addrs.size())
      __builtin_prefetch(&table_[mix(addrs[j + kAhead]) & mask]);
    add(addrs[j]);
  }
}

void AtomicConflictTable::grow() {
  const std::vector<Entry> old = std::move(table_);
  table_.assign(std::max(kInitialCapacity, 2 * old.size()), Entry{0, 0, 0});
  used_.reserve(table_.size() / 2);
  const std::size_t mask = table_.size() - 1;
  for (u32& idx : used_) {
    const Entry& e = old[idx];
    std::size_t i = mix(e.addr) & mask;
    while (table_[i].stamp == stamp_) i = (i + 1) & mask;
    table_[i] = e;
    idx = static_cast<u32>(i);
  }
}

void AtomicConflictTable::absorb(AtomicConflictTable& other) {
  for (const u32 idx : other.used_) {
    const Entry& e = other.table_[idx];
    add(e.addr, e.count);
  }
  other.clear();
}

void AtomicConflictTable::clear() {
  used_.clear();
  max_ = 0;
  // A fresh stamp empties the table; on wrap-around it is wiped once.
  if (++stamp_ == 0) {
    std::fill(table_.begin(), table_.end(), Entry{0, 0, 0});
    stamp_ = 1;
  }
}

void KernelAccum::reset(std::size_t transaction_bytes, u64 sample_stride) {
  arena_.reset();
  tracer_.reset(transaction_bytes, &arena_);
  warps_.reset(&arena_);
  atomic_conflicts_.clear();
  stride_ = std::max<u64>(1, sample_stride);
}

void KernelAccum::fold_warp(u64 warp_index) {
  warps_.push_back({warp_index, tracer_.finalize()});
  atomic_conflicts_.add_all(tracer_.atomic_addrs());
}

void KernelAccum::absorb(KernelAccum& other) {
  warps_.append(other.warps_.begin(), other.warps_.size());
  other.warps_.clear();
  atomic_conflicts_.absorb(other.atomic_conflicts_);
}

WarpTotals KernelAccum::scaled_totals() {
  std::sort(warps_.begin(), warps_.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  WarpTotals s;
  for (const auto& [idx, t] : warps_) {
    s.coalesced_tx += t.coalesced_tx;
    s.random_tx += t.random_tx;
    s.useful_bytes += t.useful_bytes;
    s.atomic_ops += t.atomic_ops;
    s.shared_accesses += t.shared_accesses;
  }
  const double m = static_cast<double>(stride_);
  s.coalesced_tx *= m;
  s.random_tx *= m;
  s.useful_bytes *= m;
  s.atomic_ops *= m;
  s.shared_accesses *= m;
  return s;
}

double KernelAccum::max_atomic_conflict() const {
  return static_cast<double>(atomic_conflicts_.max()) *
         static_cast<double>(stride_);
}

}  // namespace cusfft::cusim
