// Event-driven device timeline: streams, concurrent-kernel overlap with
// bandwidth sharing, and PCIe transfers as a separate resource. This is what
// makes the paper's asynchronous data-layout transformation (Fig. 4) — up to
// 32 kernels in flight on GK110 — simulatable.
//
// One scheduler core, merged_schedule(), replays one or more submission
// lists ("lanes", one per device) on a shared clock. Timeline::simulate()
// is that core on one lane with unlimited PCIe admission; DeviceGroup runs
// it on every device's timeline at once (device_group.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "cusim/arena.hpp"

namespace cusfft::cusim {

using StreamId = u32;  // 0 is the default stream

enum class Resource { kDeviceMemory, kPcie };

/// One scheduled operation (kernel or copy).
struct TimelineItem {
  std::string name;
  StreamId stream = 0;
  Resource resource = Resource::kDeviceMemory;
  double mem_s = 0;      // solo memory time (seconds) on its resource
  double compute_s = 0;  // non-shareable time (compute + atomics + overhead)
  std::size_t after = 0;  // barrier: may not start before items [0, after)
                          // have all completed (set by Timeline::barrier)

  // Telemetry carried for the profiler's trace export (filled by
  // Device::finish_launch / submit_copy; the scheduler ignores them).
  double mem_bytes = 0;        // bytes crossing this item's resource
  double useful_bytes = 0;     // bytes the program asked for
  double transactions = 0;     // 128B segments (coalesced + random)
  double atomic_conflict = 0;  // deepest same-address atomic chain

  // Explicit cross-stream dependencies (cudaStreamWaitEvent): indices of
  // items that must finish before this one may start. Attached by submit()
  // from the stream's pending wait_event() calls; the storage lives on the
  // owning Timeline's launch arena (valid until that Timeline's clear()).
  // External injectors pass their list through submit(item, deps).
  std::span<const std::size_t> deps;
};

/// Result for one item after simulation.
struct ItemSchedule {
  double start_s = 0;
  double finish_s = 0;
};

/// Admission policy for the shared PCIe root complex. Under kUnlimited
/// (the default, and the only behavior before staging existed) every
/// in-flight copy splits host-link bandwidth; the staged policies instead
/// bound how many copies may be in flight at once, so shards stagger
/// their bulk uploads rather than all contending at t=0 — the total bytes
/// moved are identical, but the first-admitted device's kernels start
/// sooner and overlap the remaining copies.
struct PcieStaging {
  enum class Kind {
    kUnlimited,   ///< all ready copies run, splitting link bandwidth
    kRoundRobin,  ///< one copy at a time, devices admitted in rotation
    kMaxInflight  ///< at most `limit` concurrent copies (admission in
                  ///< device-then-submission order)
  };
  Kind kind = Kind::kUnlimited;
  unsigned limit = 0;  // kMaxInflight only

  static PcieStaging Unlimited() { return {}; }
  static PcieStaging RoundRobin() {
    return {Kind::kRoundRobin, 0};
  }
  static PcieStaging MaxInflight(unsigned n) {
    return {Kind::kMaxInflight, n > 0 ? n : 1};
  }
  const char* name() const {
    switch (kind) {
      case Kind::kRoundRobin: return "round-robin";
      case Kind::kMaxInflight: return "max-inflight";
      case Kind::kUnlimited: break;
    }
    return "unlimited";
  }
};

/// One submission list of a merged schedule: a device's items (stream
/// FIFO, barriers and deps all local to the lane) and its
/// concurrent-kernel window.
struct ScheduleLane {
  std::span<const TimelineItem> items;
  unsigned max_kernels = 32;
};

/// merged_schedule() output, index-aligned with its lanes.
struct MergedSchedule {
  double makespan_s = 0;  // last finish over all lanes
  std::vector<std::vector<ItemSchedule>> items;  // per lane, per item
  /// Per lane: time its PCIe copies spent ready but held back by the
  /// staging policy (0 under kUnlimited).
  std::vector<double> pcie_queue_s;
};

/// The scheduler core: replays every lane on one clock. Within a lane,
/// items on a stream run in FIFO order, and an item also waits for its
/// barrier window (all of the lane's items [0, after) done) and its deps
/// (lane-local indices; out-of-range ones are ignored). Up to
/// `max_kernels` device kernels per lane run concurrently and share that
/// lane's memory bandwidth equally (an item's memory phase dilates by the
/// number of co-running items on its resource); PCIe copies of all lanes
/// share one host link, admitted under `staging`.
///
/// Only stream heads — the first not-done item of each stream — are ever
/// visited: under stream FIFO no other item can be running or start. The
/// heads are kept in ascending global index order (lane-major), so every
/// admission decision (kernel window, MaxInflight, round-robin ties) sees
/// the candidates in the same order a scan of every item would, and a
/// barrier is one comparison against the lane's first not-done index.
/// Each event therefore costs O(streams + deps), not O(items), and every
/// start/finish comes out of the same arithmetic in the same order as the
/// full scan, bit for bit (tests/test_fleet_sched.cpp keeps that scan as
/// the reference). Throws std::runtime_error if items remain that can
/// never start (a dependency cycle): stopping silently would under-report
/// the makespan.
MergedSchedule merged_schedule(std::span<const ScheduleLane> lanes,
                               const PcieStaging& staging);

class Timeline {
 public:
  explicit Timeline(unsigned max_concurrent_kernels = 32)
      : max_kernels_(max_concurrent_kernels) {}

  void clear();
  std::size_t submit(TimelineItem item);  // returns item index
  /// submit() with an explicit dependency list (raw-item injection: tests,
  /// schedulers). The list is copied onto the timeline's arena and merged
  /// with any pending wait_event() deps for the item's stream.
  std::size_t submit(TimelineItem item, std::span<const std::size_t> deps);
  std::size_t item_count() const { return items_.size(); }

  /// Device-wide synchronization point (cudaDeviceSynchronize semantics):
  /// every item submitted afterwards waits for everything submitted so far.
  void barrier() { barrier_ = items_.size(); }

  /// cudaEvent-style marker: the event's time is when every item submitted
  /// before it has completed. Returns an id for event_time_s().
  std::size_t record_event() {
    events_.push_back(EventMark{items_.size(), -1, false});
    return events_.size() - 1;
  }

  /// Stream-scoped cudaEvent: completes when every item submitted to `s`
  /// so far has finished (reads as time 0 on an empty stream). Shares the
  /// id space of record_event().
  std::size_t record_event(StreamId s);

  /// cudaStreamWaitEvent: the next item submitted to `s` (and, by stream
  /// FIFO, everything after it) may not start before `event_id` completes.
  void wait_event(StreamId s, std::size_t event_id);

  /// Drops every recorded event mark (ids become invalid) while keeping
  /// the submitted items — long-lived captures recycle their event table
  /// between replayed graphs this way. Invalidates the cached simulate()
  /// result: a later simulate() recomputes instead of serving the
  /// makespan cached for the pre-clear event set (the stale-`makespan_s_`
  /// hazard — reuse was previously keyed on new submissions only).
  void clear_events();

  /// Time of a recorded event in the last simulate() run (0 if nothing
  /// preceded it).
  double event_time_s(std::size_t event_id) const;

  /// Same lookup against an external schedule (index-aligned with items()).
  /// Used by DeviceGroup to read event times off a merged fleet schedule,
  /// where contention with other devices shifts this timeline's items.
  double event_time_s(std::size_t event_id,
                      const std::vector<ItemSchedule>& sched) const;

  /// Simulates the whole submission list: merged_schedule() on this one
  /// lane with unlimited PCIe admission. Items on the same stream run in
  /// FIFO order; an item additionally waits for its barrier window and its
  /// explicit deps (wait_event). Across streams up to
  /// `max_concurrent_kernels` device kernels run concurrently and share
  /// memory bandwidth equally. Returns the makespan in seconds; throws
  /// std::runtime_error if the items deadlock (a dependency cycle, only
  /// possible with hand-injected deps).
  double simulate();

  /// Per-item schedule from the last simulate() call.
  const std::vector<ItemSchedule>& schedule() const { return schedule_; }
  const std::vector<TimelineItem>& items() const { return items_; }

  /// Usage of the arena backing the dependency spans — feeds the arena
  /// high-water gauges in MetricsRegistry.
  LaunchArena::Stats arena_stats() const { return dep_arena_.stats(); }

 private:
  /// One recorded event: device-wide (all items [0, upto)) or stream-scoped
  /// (the single item that was last on the stream when recorded).
  struct EventMark {
    std::size_t upto = 0;
    std::ptrdiff_t item = -1;
    bool scoped = false;
  };

  unsigned max_kernels_;
  std::size_t barrier_ = 0;
  bool dirty_ = true;        // submissions/event clears since simulate()
  double makespan_s_ = 0;    // cached simulate() result while !dirty_
  LaunchArena dep_arena_;    // backs every TimelineItem::deps span
  std::vector<TimelineItem> items_;
  std::vector<ItemSchedule> schedule_;
  std::vector<EventMark> events_;
  std::map<StreamId, std::size_t> last_on_stream_;
  // wait_event() state consumed by the next submit() on the stream.
  std::map<StreamId, std::vector<std::size_t>> pending_deps_;
  std::map<StreamId, std::size_t> pending_after_;
};

}  // namespace cusfft::cusim
