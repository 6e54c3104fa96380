#include "cusim/device_group.hpp"

#include <algorithm>
#include <stdexcept>

#include "cusim/profiler.hpp"

namespace cusfft::cusim {

DeviceGroup::DeviceGroup(std::vector<perfmodel::GpuSpec> specs) {
  if (specs.empty())
    throw std::invalid_argument("DeviceGroup: need at least one GpuSpec");
  const std::size_t n = specs.size();
  const std::size_t team =
      std::max<std::size_t>(1, ThreadPool::global().size() / n);
  for (auto& spec : specs) {
    PerDevice pd;
    pd.dev = std::make_unique<Device>(spec);
    if (n > 1) {
      // Private team per device: the global pool's task slots assume a
      // single submitting thread, and shards submit from N host threads.
      pd.pool = std::make_unique<ThreadPool>(team);
      pd.dev->set_pool(pd.pool.get());
    }
    devices_.push_back(std::move(pd));
  }
  pool_at_capture_ = BufferPool::global().stats();
}

DeviceGroup::DeviceGroup(std::size_t count, perfmodel::GpuSpec spec)
    : DeviceGroup(std::vector<perfmodel::GpuSpec>(
          count > 0 ? count : 1, std::move(spec))) {
  if (count == 0)
    throw std::invalid_argument("DeviceGroup: need at least one device");
}

void DeviceGroup::begin_capture() {
  for (auto& pd : devices_) pd.dev->begin_capture();
  pool_at_capture_ = BufferPool::global().stats();
}

// Merged replay of every device's timeline on the shared scheduler core
// (merged_schedule: per-device kernel window and memory bandwidth, PCIe
// shared across the fleet under the staging policy; throws on deadlock),
// then the per-device post-pass.
FleetSchedule DeviceGroup::simulate() {
  const std::size_t ndev = devices_.size();
  std::vector<ScheduleLane> lanes;
  lanes.reserve(ndev);
  for (const auto& pd : devices_)
    lanes.push_back(
        {pd.dev->timeline().items(), pd.dev->spec().max_concurrent_kernels});
  MergedSchedule ms = merged_schedule(lanes, staging_);
  FleetSchedule fs;
  fs.makespan_s = ms.makespan_s;
  fs.items = std::move(ms.items);
  fs.pcie_queue_s = std::move(ms.pcie_queue_s);
  fs.finish_s.assign(ndev, 0.0);
  fs.busy_s.assign(ndev, 0.0);
  fs.pcie_stall_s.assign(ndev, 0.0);

  for (std::size_t d = 0; d < ndev; ++d) {
    Device& dev = *devices_[d].dev;
    const auto& items = dev.timeline().items();
    // Busy time = union of kernel intervals (time with >= 1 kernel
    // resident), so busy_s/makespan is a true [0, 1] utilization —
    // summing spans would double-count concurrent kernels.
    std::vector<std::pair<double, double>> spans;
    for (std::size_t i = 0; i < items.size(); ++i) {
      fs.finish_s[d] = std::max(fs.finish_s[d], fs.items[d][i].finish_s);
      if (items[i].resource == Resource::kDeviceMemory)
        spans.emplace_back(fs.items[d][i].start_s, fs.items[d][i].finish_s);
    }
    std::sort(spans.begin(), spans.end());
    double cover_end = -1.0;
    for (const auto& [s0, s1] : spans) {
      if (s0 > cover_end) {
        fs.busy_s[d] += s1 - s0;
        cover_end = s1;
      } else if (s1 > cover_end) {
        fs.busy_s[d] += s1 - cover_end;
        cover_end = s1;
      }
    }
    // Contention stall: merged copy durations vs the device's own
    // (contention-free) schedule of the same items.
    dev.elapsed_model_ms();  // ensures the solo schedule is computed
    const auto& solo = dev.timeline().schedule();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].resource != Resource::kPcie) continue;
      const double merged =
          fs.items[d][i].finish_s - fs.items[d][i].start_s;
      const double alone = solo[i].finish_s - solo[i].start_s;
      fs.pcie_stall_s[d] += std::max(0.0, merged - alone);
    }
  }
  return fs;
}

CaptureProfile DeviceGroup::end_capture() { return collect_profile(*this); }

}  // namespace cusfft::cusim
