// Warp-level memory tracing. While a kernel executes functionally, sampled
// warps record every global access; finalize() groups the accesses of the
// 32 lanes by instruction slot and counts 128-byte segment transactions —
// the coalescing rule of Section IV.B ("the k-th thread accesses the k-th
// word in a cache line").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "cusim/arena.hpp"

namespace cusfft::cusim {

/// Totals extracted from one traced warp.
struct WarpTotals {
  double coalesced_tx = 0;  // transactions from dense (near-minimal) slots
  double random_tx = 0;     // transactions from scattered slots
  double useful_bytes = 0;
  double atomic_ops = 0;
  double shared_accesses = 0;
};

class WarpTracer {
 public:
  /// `arena` backs the access records until the next reset; it must outlive
  /// the tracer's use and is recycled by the owning KernelAccum per launch.
  /// `transaction_bytes` (the coalescing segment) must be a power of two.
  void reset(std::size_t transaction_bytes, LaunchArena* arena);

  /// Empties the record list for the next traced warp, keeping all storage
  /// (same arena generation) — the per-warp cycle allocates nothing once
  /// the capacity high-water mark is reached.
  void clear();

  /// Records one lane's access. `slot` is the lane-local sequence number of
  /// the access; the i-th access of every lane is treated as one warp-wide
  /// instruction (exact for non-divergent kernels). Inline and a few
  /// instructions long (ArenaVec's growth path is out of line): a call
  /// here would spill the kernel's live registers on every traced access.
  void on_access(u32 slot, u64 addr, u32 bytes, bool atomic) {
    accesses_.push_back(Access{addr, slot, bytes});
    if (atomic) atomics_.push_back(addr);
    if (slot > max_slot_) max_slot_ = slot;
  }

  void on_shared(double count) { shared_ += count; }

  /// Groups slots into transactions and classifies them. A slot whose
  /// transaction count is within 2x of the minimum possible for its byte
  /// volume counts as coalesced; otherwise random. One pass over the
  /// records: each slot keeps its byte volume and last segment, and a
  /// segment that differs from the slot's last one is looked up in a
  /// (slot, segment) set that is invalidated per warp by bumping a stamp,
  /// never cleared — O(accesses) per warp with no heap traffic.
  WarpTotals finalize();

  /// Addresses of this warp's atomics, in record order (conflict
  /// accounting; valid until the next clear()).
  std::span<const u64> atomic_addrs() const {
    return {atomics_.begin(), atomics_.size()};
  }

 private:
  struct Access {
    u64 addr;
    u32 slot;
    u32 bytes;
  };
  struct SlotState {
    u64 last_seg;  // most recent segment counted for the slot
    u64 bytes;
    u64 tx;  // distinct segments
  };
  struct SegEntry {
    u64 seg;
    u32 slot;
    u32 stamp;  // live only when equal to stamp_
  };

  /// Adds (slot, seg) to the per-warp set; true if it was not present.
  bool insert_seg(u32 slot, u64 seg);
  void grow_seg_set();

  ArenaVec<Access> accesses_;
  ArenaVec<u64> atomics_;
  // finalize() scratch, capacity reused across warps and launches.
  std::vector<SlotState> slots_;
  std::vector<SegEntry> seg_set_;  // open-addressed, power-of-two capacity
  std::size_t seg_set_live_ = 0;
  u32 stamp_ = 0;
  u32 max_slot_ = 0;
  double shared_ = 0;
  std::size_t tx_bytes_ = 128;
  unsigned tx_shift_ = 7;  // log2(tx_bytes_)
};

/// Per-address atomic counts: an open-addressed table (linear probing,
/// power-of-two capacity, grown at half load). Entries are invalidated by
/// bumping a stamp and the deepest count is kept as a running maximum, so
/// clear() and max() are O(1); a list of the occupied entries makes
/// absorb() O(addresses used) rather than O(capacity).
class AtomicConflictTable {
 public:
  static constexpr std::size_t kInitialCapacity = 1024;

  /// Counts `count` atomics on `addr` (count >= 1).
  void add(u64 addr, u32 count = 1);
  /// Counts one atomic on each address. The whole batch is inserted with
  /// the next probes prefetched: tables of kernels that scatter atomics
  /// over a large array (Algorithm 4's vote) exceed the caches, and
  /// inserting one address per atomic as it executes stalls on every miss.
  void add_all(std::span<const u64> addrs);
  /// Adds every count of `other` into this table and empties `other`.
  void absorb(AtomicConflictTable& other);
  void clear();
  /// Deepest same-address count (0 when empty).
  u32 max() const { return max_; }
  std::size_t size() const { return used_.size(); }
  std::size_t capacity() const { return table_.size(); }

 private:
  struct Entry {
    u64 addr;
    u32 count;
    u32 stamp;  // live only when equal to stamp_
  };
  void grow();

  std::vector<Entry> table_;
  std::vector<u32> used_;  // indices of live entries
  u32 stamp_ = 1;          // 0 marks never-written entries
  u32 max_ = 0;
};

/// Whole-kernel accumulation across traced warps plus the kernel-wide
/// atomic-conflict table (deepest same-address chain).
///
/// Traced warps are kept as per-warp records keyed by their grid-wide warp
/// index instead of a running sum. The block-parallel launch path gives each
/// pool worker its own KernelAccum, absorb()s them after the grid drains,
/// and scaled_totals() folds the records in ascending warp-index order — the
/// exact summation order of a sequential sweep, so parallel and sequential
/// launches produce bit-identical counters.
///
/// All per-launch records (trace accesses, per-warp totals) live on the
/// accumulator's LaunchArena; reset() recycles it, so a warm capture's
/// launches allocate nothing.
class KernelAccum {
 public:
  void reset(std::size_t transaction_bytes, u64 sample_stride);

  WarpTracer& tracer() { return tracer_; }
  u64 sample_stride() const { return stride_; }
  LaunchArena& arena() { return arena_; }

  /// Finalizes the tracer into the record for grid-wide warp `warp_index`
  /// and counts its atomics into the conflict table.
  void fold_warp(u64 warp_index);

  /// Moves another accumulator's traced warps and atomic-conflict counts
  /// into this one (used to merge per-worker accumulators; `other` is left
  /// empty). Per-address conflict counts add, so the merge is independent of
  /// worker interleaving.
  void absorb(KernelAccum& other);

  /// Extrapolated whole-kernel counters (multiplies by the sample stride),
  /// folded in warp-index order.
  WarpTotals scaled_totals();
  double max_atomic_conflict() const;

 private:
  struct WarpRecord {
    u64 index;
    WarpTotals totals;
  };
  LaunchArena arena_;
  WarpTracer tracer_;
  ArenaVec<WarpRecord> warps_;
  AtomicConflictTable atomic_conflicts_;
  u64 stride_ = 1;
};

}  // namespace cusfft::cusim
