// A fleet of simulated GPUs behind one host. Each Device keeps its own
// timeline, buffers, and (for N > 1) a private host ThreadPool sized
// global_threads/N, so N shards execute functionally in parallel from N
// host threads without sharing the single-submitter global pool.
//
// The merged simulation replays every device's captured timeline on one
// clock: device-side resources (the Hyper-Q concurrent-kernel window,
// device memory bandwidth) stay per-device, but all PCIe copies contend
// for the shared host root complex — H2D/D2H transfers to different
// devices split host link bandwidth instead of overlapping for free.
// It is the same scheduler core Timeline::simulate() runs
// (merged_schedule() in timeline.hpp, one lane per device, visiting only
// stream heads in global index order), so for a single device under
// unlimited staging the merged schedule is bit-identical to
// Timeline::simulate() by construction, and fleet numbers degrade
// gracefully to the single-device ones. DeviceGroup itself adds only the
// per-device post-pass: busy-time union and PCIe stall.
#pragma once

#include <memory>
#include <vector>

#include "core/thread_pool.hpp"
#include "cusim/device.hpp"
#include "cusim/pool.hpp"

namespace cusfft::cusim {

struct CaptureProfile;  // profiler.hpp

/// All device timelines replayed on one shared clock (t=0 at the group's
/// begin_capture). Index-aligned with the group's devices.
struct FleetSchedule {
  double makespan_s = 0;  // fleet-level finish (max over devices)
  /// Per-device item schedules, index-aligned with that device's
  /// timeline().items() — same shape Timeline::schedule() has, but with
  /// cross-device PCIe contention applied.
  std::vector<std::vector<ItemSchedule>> items;
  std::vector<double> finish_s;      // per device: last item finish (0 idle)
  /// Per device: time with at least one kernel resident (union of kernel
  /// intervals, NOT summed spans) — busy_s/makespan is a [0, 1]
  /// utilization that correctly drops when the device idles on PCIe.
  std::vector<double> busy_s;
  /// Per device: extra time its PCIe copies spent because other devices'
  /// copies shared the host link (merged duration minus the device's own
  /// contention-free schedule). Zero for a single-device group.
  std::vector<double> pcie_stall_s;
  /// Per device: time its PCIe copies spent *waiting for admission* under
  /// a staging policy (ready but held back by the in-flight limit). Zero
  /// under PcieStaging::kUnlimited — staging converts bandwidth-sharing
  /// stall into queueing, and the two columns make that trade visible.
  std::vector<double> pcie_queue_s;
};

class DeviceGroup {
 public:
  /// One Device per spec, in order. For size() > 1 each device gets a
  /// private ThreadPool of max(1, ThreadPool::global().size()/N) workers.
  explicit DeviceGroup(std::vector<perfmodel::GpuSpec> specs);
  /// N homogeneous devices (default: the paper's K20x).
  explicit DeviceGroup(std::size_t count,
                       perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x());

  std::size_t size() const { return devices_.size(); }
  Device& device(std::size_t i) { return *devices_[i].dev; }
  const Device& device(std::size_t i) const { return *devices_[i].dev; }

  /// Starts a fresh measured region on every device and snapshots the
  /// global BufferPool for the fleet-level allocation delta. Call before
  /// fanning shards out; every device shares the capture's t=0.
  void begin_capture();

  /// Root-complex admission policy for the merged simulation. Takes
  /// effect on the next simulate(); kUnlimited (the default) reproduces
  /// the historical all-copies-share-the-link behavior exactly.
  void set_staging(PcieStaging s) { staging_ = s; }
  const PcieStaging& staging() const { return staging_; }

  /// Replays all captured timelines on the shared clock (see file
  /// comment). Safe to call repeatedly; recomputes each time. Throws
  /// std::runtime_error if the captured timelines deadlock (an item's
  /// dependencies can never clear — only possible with hand-injected
  /// items); a silent stop here would under-report the makespan.
  FleetSchedule simulate();

  /// Merged observability record: one CaptureProfile whose spans/phases
  /// carry a device index, with one `lanes` entry per device — the
  /// chrome-trace export renders one track group (pid) per device on the
  /// shared time origin.
  CaptureProfile end_capture();

  /// BufferPool::global() stats at the last begin_capture() (group-level;
  /// per-device snapshots are racy while shards run concurrently).
  const BufferPool::Stats& pool_stats_at_capture() const {
    return pool_at_capture_;
  }

 private:
  struct PerDevice {
    std::unique_ptr<Device> dev;
    std::unique_ptr<ThreadPool> pool;  // private team; null for N == 1
  };
  std::vector<PerDevice> devices_;
  BufferPool::Stats pool_at_capture_;
  PcieStaging staging_;
};

}  // namespace cusfft::cusim
