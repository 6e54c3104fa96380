// Fleet scheduler regression sweep: per-device dependency scoping,
// deadlock detection, PCIe staging admission policies, bit-identity of the
// merged schedule against a full-scan reference, interval-union
// busy accounting, the per-signal cost model, and mixed-shape fleet
// execution. The raw-timeline tests inject TimelineItems directly
// (Device::timeline() mutable access) to reach schedules the kernel API
// cannot produce — dangling deps, cycles, bare concurrent copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/timeline.hpp"
#include "signal/generate.hpp"

namespace cusfft {
namespace {

using cusim::DeviceGroup;
using cusim::PcieStaging;
using cusim::Resource;
using cusim::TimelineItem;

TimelineItem kernel_item(const char* name, cusim::StreamId s,
                         double compute_s,
                         std::vector<std::size_t> deps = {}) {
  // TimelineItem::deps is a non-owning view; park the list in static
  // storage so it outlives the returned temporary long enough for submit()
  // to copy it onto the timeline's arena. Each call recycles the previous
  // list, which is fine here: every item is submitted before the next one
  // is built.
  static thread_local std::vector<std::size_t> storage;
  storage = std::move(deps);
  TimelineItem it;
  it.name = name;
  it.stream = s;
  it.resource = Resource::kDeviceMemory;
  it.compute_s = compute_s;
  it.deps = {storage.data(), storage.size()};
  return it;
}

TimelineItem copy_item(const char* name, cusim::StreamId s, double mem_s) {
  TimelineItem it;
  it.name = name;
  it.stream = s;
  it.resource = Resource::kPcie;
  it.mem_s = mem_s;
  return it;
}

cvec test_signal(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed);
  return signal::make_sparse_signal(n, k, rng).x;
}

sfft::Params make_params(std::size_t n, std::size_t k, u64 seed) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = seed;
  return p;
}

perfmodel::GpuSpec half_rate_k20x() {
  perfmodel::GpuSpec slow = perfmodel::GpuSpec::k20x();
  slow.name = "K20x/2";
  slow.mem_bandwidth_Bps /= 2;
  return slow;
}

void expect_identical(const std::vector<SparseSpectrum>& a,
                      const std::vector<SparseSpectrum>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " signal " << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j].loc, b[i][j].loc) << what << " signal " << i;
      EXPECT_EQ(a[i][j].val, b[i][j].val) << what << " signal " << i;
    }
  }
}

// ---- bugfix: deps must stay scoped to the owning device --------------

TEST(FleetSched, DepsStayScopedToTheOwningDevice) {
  // Device 0 owns three items; item 2 carries a dangling dep (5). In the
  // merged node array index 5 lands inside device 1's range, and the old
  // `base + dep < total` guard made the item wait for a foreign device's
  // work. Deps are local to their timeline: out-of-range for the OWNING
  // device means ignored, exactly as Timeline::simulate treats them.
  DeviceGroup group(2);
  auto& t0 = group.device(0).timeline();
  t0.submit(kernel_item("a", 0, 1e-3));
  t0.submit(kernel_item("b", 1, 1e-3, {0}));  // in range: still honored
  t0.submit(kernel_item("c", 2, 1e-3, {5}));  // dangling: ignored
  auto& t1 = group.device(1).timeline();
  for (int i = 0; i < 8; ++i) t1.submit(kernel_item("w", 0, 1e-3));

  const auto fs = group.simulate();
  EXPECT_DOUBLE_EQ(fs.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.items[0][1].start_s, 1e-3);  // waited for item 0
  // Aliased into device 1, the dangling dep would hold "c" until 3 ms
  // (device 1's third item); scoped correctly it starts immediately.
  EXPECT_DOUBLE_EQ(fs.items[0][2].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.makespan_s, 8e-3);
  // Busy time is the union of kernel intervals: "a" and "c" overlap on
  // [0, 1ms], "b" covers [1ms, 2ms] — 2 ms total, not 3 ms of summed
  // spans.
  EXPECT_DOUBLE_EQ(fs.busy_s[0], 2e-3);
}

// ---- bugfix: busy_s is interval coverage, not last-finish ------------

TEST(FleetSched, BusyTimeExcludesPcieIdleGaps) {
  // kernel -> copy -> kernel on one stream: the device idles during the
  // copy, so busy is 2 ms of a 3 ms makespan. The old finish/makespan
  // utilization reported 1.0 for exactly this schedule.
  DeviceGroup group(1);
  auto& tl = group.device(0).timeline();
  tl.submit(kernel_item("k1", 0, 1e-3));
  tl.submit(copy_item("h2d", 0, 1e-3));
  tl.submit(kernel_item("k2", 0, 1e-3));

  const auto fs = group.simulate();
  EXPECT_DOUBLE_EQ(fs.makespan_s, 3e-3);
  EXPECT_DOUBLE_EQ(fs.finish_s[0], 3e-3);
  EXPECT_DOUBLE_EQ(fs.busy_s[0], 2e-3);
}

// ---- bugfix: deadlock throws instead of under-reporting --------------

TEST(FleetSched, DeadlockedTimelineThrows) {
  // An item depending on itself can never start. The old loop broke out
  // silently, reporting a makespan that ignored the stuck item.
  DeviceGroup group(2);
  group.device(0).timeline().submit(kernel_item("ok", 0, 1e-3));
  group.device(1).timeline().submit(kernel_item("self", 0, 1e-3, {0}));
  try {
    group.simulate();
    FAIL() << "expected DeviceGroup::simulate to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST(FleetSched, DependencyCycleThrows) {
  DeviceGroup group(1);
  auto& tl = group.device(0).timeline();
  tl.submit(kernel_item("x", 0, 1e-3, {1}));
  tl.submit(kernel_item("y", 1, 1e-3, {0}));
  EXPECT_THROW(group.simulate(), std::runtime_error);
}

// ---- PCIe staging admission ------------------------------------------

TEST(FleetSched, UnlimitedStagingSharesTheLink) {
  DeviceGroup group(2);
  group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
  group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));

  const auto fs = group.simulate();
  EXPECT_STREQ(group.staging().name(), "unlimited");
  // Both copies run at half bandwidth for the full window.
  EXPECT_DOUBLE_EQ(fs.makespan_s, 2e-3);
  EXPECT_NEAR(fs.pcie_stall_s[0], 1e-3, 1e-12);
  EXPECT_NEAR(fs.pcie_stall_s[1], 1e-3, 1e-12);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[0], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[1], 0.0);
}

TEST(FleetSched, RoundRobinStagingConvertsStallIntoQueue) {
  DeviceGroup group(2);
  group.set_staging(PcieStaging::RoundRobin());
  group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
  group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));

  const auto fs = group.simulate();
  EXPECT_STREQ(group.staging().name(), "round-robin");
  // Serialized copies move the same bytes in the same total time, but
  // each runs at full link rate: contention stall becomes admission
  // queueing on the second device.
  EXPECT_DOUBLE_EQ(fs.makespan_s, 2e-3);
  EXPECT_DOUBLE_EQ(fs.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(fs.pcie_stall_s[0], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_stall_s[1], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[0], 0.0);
  EXPECT_DOUBLE_EQ(fs.pcie_queue_s[1], 1e-3);
}

TEST(FleetSched, RoundRobinRotatesAcrossDevices) {
  // Device 0 has two ready copies, device 1 one. Strict per-copy rotation
  // would starve nobody: dev0, dev1, dev0 — not dev0 twice first.
  DeviceGroup group(2);
  group.set_staging(PcieStaging::RoundRobin());
  auto& t0 = group.device(0).timeline();
  t0.submit(copy_item("a", 1, 1e-3));
  t0.submit(copy_item("b", 2, 1e-3));
  group.device(1).timeline().submit(copy_item("c", 1, 1e-3));

  const auto fs = group.simulate();
  EXPECT_DOUBLE_EQ(fs.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(fs.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(fs.items[0][1].start_s, 2e-3);
  EXPECT_DOUBLE_EQ(fs.makespan_s, 3e-3);
}

TEST(FleetSched, MaxInflightBoundsConcurrentCopies) {
  auto run = [](unsigned limit) {
    DeviceGroup group(2);
    group.set_staging(PcieStaging::MaxInflight(limit));
    group.device(0).timeline().submit(copy_item("h2d0", 1, 1e-3));
    group.device(1).timeline().submit(copy_item("h2d1", 1, 1e-3));
    return group.simulate();
  };
  const auto capped = run(1);
  // One at a time: second copy queues, nobody shares bandwidth.
  EXPECT_DOUBLE_EQ(capped.items[0][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(capped.items[1][0].start_s, 1e-3);
  EXPECT_DOUBLE_EQ(capped.pcie_queue_s[1], 1e-3);
  EXPECT_DOUBLE_EQ(capped.pcie_stall_s[0] + capped.pcie_stall_s[1], 0.0);

  // A limit covering every copy reproduces kUnlimited exactly.
  const auto open = run(2);
  EXPECT_DOUBLE_EQ(open.items[1][0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(open.pcie_queue_s[0] + open.pcie_queue_s[1], 0.0);
  EXPECT_NEAR(open.pcie_stall_s[0], 1e-3, 1e-12);

  DeviceGroup named(1);
  named.set_staging(PcieStaging::MaxInflight(3));
  EXPECT_STREQ(named.staging().name(), "max-inflight");
}

// ---- differential: merged scheduler vs the full-scan reference --------

// Test-local copy of the full-scan merged loop DeviceGroup::simulate ran
// before the stream-head scheduler, kept as the bit-identity reference:
// every event it scans every item of every lane in global index order
// (lane-major), tests barriers by walking all of [0, after), and throws on
// a deadlock. `lanes[d]` is device d's submission list, `cap[d]` its
// concurrent-kernel window.
struct RefMerged {
  double makespan_s = 0;
  std::vector<std::vector<cusim::ItemSchedule>> items;
  std::vector<double> pcie_queue_s;
};

RefMerged reference_merged(
    const std::vector<const std::vector<TimelineItem>*>& lanes,
    const std::vector<unsigned>& cap, PcieStaging staging) {
  const std::size_t ndev = lanes.size();
  RefMerged fs;
  fs.items.resize(ndev);
  fs.pcie_queue_s.assign(ndev, 0.0);

  struct Node {
    const TimelineItem* it = nullptr;
    unsigned dev = 0;
    std::size_t base = 0;
    double mem_left = 0, comp_left = 0;
    std::ptrdiff_t prev = -1;
    bool running = false, done = false;
    bool held = false;
  };
  std::vector<Node> nodes;
  std::vector<std::size_t> dev_count(ndev, 0);
  for (std::size_t d = 0; d < ndev; ++d) {
    const auto& items = *lanes[d];
    const std::size_t base = nodes.size();
    dev_count[d] = items.size();
    fs.items[d].assign(items.size(), cusim::ItemSchedule{});
    std::vector<std::pair<cusim::StreamId, std::size_t>> last;
    for (std::size_t i = 0; i < items.size(); ++i) {
      Node nd;
      nd.it = &items[i];
      nd.dev = static_cast<unsigned>(d);
      nd.base = base;
      nd.mem_left = items[i].mem_s;
      nd.comp_left = items[i].compute_s;
      bool linked = false;
      for (auto& [sid, idx] : last)
        if (sid == items[i].stream) {
          nd.prev = static_cast<std::ptrdiff_t>(base + idx);
          idx = i;
          linked = true;
          break;
        }
      if (!linked) last.emplace_back(items[i].stream, i);
      nodes.push_back(nd);
    }
  }

  const std::size_t n = nodes.size();
  constexpr double kEps = 1e-15;
  double t = 0.0;
  std::size_t done_count = 0;
  unsigned rr_next = 0;
  std::vector<unsigned> dev_running(ndev, 0), dev_mem(ndev, 0);
  while (done_count < n) {
    std::fill(dev_running.begin(), dev_running.end(), 0u);
    unsigned pcie_running = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i].held = false;
      if (!nodes[i].running) continue;
      if (nodes[i].it->resource == Resource::kDeviceMemory)
        ++dev_running[nodes[i].dev];
      else
        ++pcie_running;
    }
    std::ptrdiff_t rr_pick = -1;
    auto rr_dist = [&](unsigned dev) {
      return (dev + static_cast<unsigned>(ndev) - rr_next) %
             static_cast<unsigned>(ndev);
    };
    for (std::size_t i = 0; i < n; ++i) {
      Node& nd = nodes[i];
      if (nd.running || nd.done) continue;
      if (nd.prev >= 0 && !nodes[static_cast<std::size_t>(nd.prev)].done)
        continue;
      bool barrier_clear = true;
      for (std::size_t b = 0; b < nd.it->after && barrier_clear; ++b)
        barrier_clear = nodes[nd.base + b].done;
      if (!barrier_clear) continue;
      bool deps_clear = true;
      for (const std::size_t dep : nd.it->deps)
        if (dep < dev_count[nd.dev] && !nodes[nd.base + dep].done) {
          deps_clear = false;
          break;
        }
      if (!deps_clear) continue;
      if (nd.it->resource == Resource::kDeviceMemory) {
        if (dev_running[nd.dev] >= cap[nd.dev]) continue;
        ++dev_running[nd.dev];
      } else {
        switch (staging.kind) {
          case PcieStaging::Kind::kUnlimited:
            break;
          case PcieStaging::Kind::kMaxInflight:
            if (pcie_running >= staging.limit) {
              nd.held = true;
              continue;
            }
            ++pcie_running;
            break;
          case PcieStaging::Kind::kRoundRobin:
            nd.held = true;
            if (pcie_running == 0 &&
                (rr_pick < 0 || rr_dist(nd.dev) < rr_dist(nodes[rr_pick].dev)))
              rr_pick = static_cast<std::ptrdiff_t>(i);
            continue;
        }
      }
      nd.running = true;
      fs.items[nd.dev][i - nd.base].start_s = t;
    }
    if (rr_pick >= 0) {
      Node& nd = nodes[static_cast<std::size_t>(rr_pick)];
      nd.held = false;
      nd.running = true;
      fs.items[nd.dev][static_cast<std::size_t>(rr_pick) - nd.base].start_s =
          t;
      rr_next = (nd.dev + 1) % static_cast<unsigned>(ndev);
    }

    std::fill(dev_mem.begin(), dev_mem.end(), 0u);
    unsigned pcie_mem = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (nodes[i].running && nodes[i].mem_left > kEps) {
        if (nodes[i].it->resource == Resource::kDeviceMemory)
          ++dev_mem[nodes[i].dev];
        else
          ++pcie_mem;
      }
    auto share_of = [&](const Node& nd) {
      return nd.it->resource == Resource::kDeviceMemory
                 ? static_cast<double>(std::max(1u, dev_mem[nd.dev]))
                 : static_cast<double>(std::max(1u, pcie_mem));
    };

    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!nodes[i].running) continue;
      const double share = share_of(nodes[i]);
      const double fin =
          std::max(nodes[i].comp_left, nodes[i].mem_left * share);
      dt = std::min(dt, fin);
      if (nodes[i].mem_left > kEps)
        dt = std::min(dt, nodes[i].mem_left * share);
    }
    if (!std::isfinite(dt))
      throw std::runtime_error("reference_merged: deadlock");
    dt = std::max(dt, 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      if (nodes[i].held) fs.pcie_queue_s[nodes[i].dev] += dt;
      if (!nodes[i].running) continue;
      const double share = share_of(nodes[i]);
      nodes[i].comp_left -= dt;
      nodes[i].mem_left -= dt / share;
      if (nodes[i].comp_left <= kEps && nodes[i].mem_left <= kEps) {
        nodes[i].running = false;
        nodes[i].done = true;
        fs.items[nodes[i].dev][i - nodes[i].base].finish_s = t + dt;
        ++done_count;
      }
    }
    t += dt;
  }
  fs.makespan_s = t;
  return fs;
}

// The reference for the whole of DeviceGroup::simulate: the merged loop
// above plus the post-pass (per-device finish, kernel-interval union, PCIe
// stall against the device's own schedule, itself from the reference loop).
cusim::FleetSchedule reference_fleet(const DeviceGroup& group) {
  const std::size_t ndev = group.size();
  std::vector<const std::vector<TimelineItem>*> lanes;
  std::vector<unsigned> cap;
  for (std::size_t d = 0; d < ndev; ++d) {
    lanes.push_back(&group.device(d).timeline().items());
    cap.push_back(group.device(d).spec().max_concurrent_kernels);
  }
  RefMerged m = reference_merged(lanes, cap, group.staging());
  cusim::FleetSchedule fs;
  fs.makespan_s = m.makespan_s;
  fs.items = std::move(m.items);
  fs.pcie_queue_s = std::move(m.pcie_queue_s);
  fs.finish_s.assign(ndev, 0.0);
  fs.busy_s.assign(ndev, 0.0);
  fs.pcie_stall_s.assign(ndev, 0.0);
  for (std::size_t d = 0; d < ndev; ++d) {
    const auto& items = *lanes[d];
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
    const RefMerged solo =
        reference_merged({lanes[d]}, {cap[d]}, PcieStaging::Unlimited());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].resource != Resource::kPcie) continue;
      const double merged = fs.items[d][i].finish_s - fs.items[d][i].start_s;
      const double alone =
          solo.items[0][i].finish_s - solo.items[0][i].start_s;
      fs.pcie_stall_s[d] += std::max(0.0, merged - alone);
    }
  }
  return fs;
}

// A random submission list on `tl`: 0-39 items over 1-6 streams, a quarter
// of them PCIe copies, zero and non-zero mem/compute times drawn from a
// small grid (so completions tie and several items retire in one event),
// Timeline::barrier(), device-wide and stream-scoped wait_event deps, raw
// submit(item, deps) lists with earlier, dangling (past the last item)
// and — when `cycles` is set — later indices, which can deadlock, and a
// rare NaN compute time.
void fill_random_timeline(cusim::Timeline& tl, Rng& rng, bool cycles) {
  const std::size_t streams = 1 + rng.next_below(6);
  const std::size_t count = rng.next_below(40);
  auto duration = [&] {
    static constexpr double kGrid[] = {0.0, 0.0, 1e-4, 2e-4, 5e-4, 1e-3};
    const u64 r = rng.next_below(8);
    return r < 6 ? kGrid[r]
                 : 1e-6 * static_cast<double>(1 + rng.next_below(999));
  };
  auto stream = [&] {
    return static_cast<cusim::StreamId>(rng.next_below(streams));
  };
  for (std::size_t i = 0; i < count; ++i) {
    const u64 op = rng.next_below(100);
    if (op < 8) {
      tl.barrier();
    } else if (op < 16 && i > 0) {
      tl.wait_event(stream(), tl.record_event(stream()));
    } else if (op < 21) {
      tl.wait_event(stream(), tl.record_event());
    }
    TimelineItem it;
    it.name = "r";
    it.stream = stream();
    it.resource =
        rng.next_below(4) == 0 ? Resource::kPcie : Resource::kDeviceMemory;
    it.mem_s = duration();
    it.compute_s = duration();
    // A NaN time never drains, so the item never finishes: both sides
    // must end in the deadlock throw.
    if (rng.next_below(400) == 0)
      it.compute_s = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::size_t> deps;
    if (rng.next_below(5) == 0) {
      const std::size_t nd = 1 + rng.next_below(3);
      for (std::size_t j = 0; j < nd; ++j) {
        const u64 kind = rng.next_below(cycles ? 4 : 3);
        if (kind < 2 && i > 0)
          deps.push_back(rng.next_below(i));  // earlier
        else if (kind == 2)
          deps.push_back(count + rng.next_below(1000));  // dangling
        else if (kind == 3)
          deps.push_back(i + rng.next_below(count - i));  // self or later
      }
    }
    tl.submit(std::move(it), deps);
  }
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const char* what,
                      int trial) {
  ASSERT_EQ(a.size(), b.size()) << what << " trial " << trial;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what << " trial " << trial;
}

void expect_same_bits(const std::vector<cusim::ItemSchedule>& a,
                      const std::vector<cusim::ItemSchedule>& b,
                      const char* what, int trial) {
  ASSERT_EQ(a.size(), b.size()) << what << " trial " << trial;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i].start_s, &b[i].start_s, sizeof(double)), 0)
        << what << " trial " << trial << " item " << i << " start "
        << a[i].start_s << " vs " << b[i].start_s;
    EXPECT_EQ(std::memcmp(&a[i].finish_s, &b[i].finish_s, sizeof(double)),
              0)
        << what << " trial " << trial << " item " << i << " finish "
        << a[i].finish_s << " vs " << b[i].finish_s;
  }
}

TEST(FleetSched, MergedScheduleBitIdenticalToFullScanReference) {
  Rng rng(20161);
  int compared = 0, deadlocked = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const bool cycles = trial % 5 == 4;
    const std::size_t ndev = 1 + rng.next_below(3);
    std::vector<perfmodel::GpuSpec> specs(ndev, perfmodel::GpuSpec::k20x());
    for (auto& s : specs)
      s.max_concurrent_kernels = static_cast<unsigned>(1 + rng.next_below(3));
    DeviceGroup group(std::move(specs));
    for (std::size_t d = 0; d < ndev; ++d)
      fill_random_timeline(group.device(d).timeline(), rng, cycles);
    switch (trial % 3) {
      case 0: group.set_staging(PcieStaging::Unlimited()); break;
      case 1: group.set_staging(PcieStaging::RoundRobin()); break;
      default:
        group.set_staging(PcieStaging::MaxInflight(
            static_cast<unsigned>(1 + rng.next_below(3))));
    }

    cusim::FleetSchedule want;
    bool ref_threw = false;
    try {
      want = reference_fleet(group);
    } catch (const std::runtime_error&) {
      ref_threw = true;
    }
    if (ref_threw) {
      ++deadlocked;
      EXPECT_THROW(group.simulate(), std::runtime_error) << "trial " << trial;
      // The deadlocked device's own Timeline::simulate throws too.
      bool any_threw = false;
      for (std::size_t d = 0; d < ndev; ++d) {
        try {
          group.device(d).timeline().simulate();
        } catch (const std::runtime_error&) {
          any_threw = true;
        }
      }
      EXPECT_TRUE(any_threw) << "trial " << trial;
      continue;
    }
    ++compared;
    const cusim::FleetSchedule got = group.simulate();
    EXPECT_EQ(std::memcmp(&got.makespan_s, &want.makespan_s, sizeof(double)),
              0)
        << "trial " << trial << ": " << got.makespan_s << " vs "
        << want.makespan_s;
    ASSERT_EQ(got.items.size(), ndev);
    for (std::size_t d = 0; d < ndev; ++d)
      expect_same_bits(got.items[d], want.items[d], "fleet items", trial);
    expect_same_bits(got.finish_s, want.finish_s, "finish_s", trial);
    expect_same_bits(got.busy_s, want.busy_s, "busy_s", trial);
    expect_same_bits(got.pcie_stall_s, want.pcie_stall_s, "pcie_stall_s",
                     trial);
    expect_same_bits(got.pcie_queue_s, want.pcie_queue_s, "pcie_queue_s",
                     trial);

    // Each device alone: Timeline::simulate is the one-lane,
    // unlimited-staging case of the same loop.
    for (std::size_t d = 0; d < ndev; ++d) {
      cusim::Timeline& tl = group.device(d).timeline();
      const RefMerged solo = reference_merged(
          {&tl.items()}, {group.device(d).spec().max_concurrent_kernels},
          PcieStaging::Unlimited());
      const double makespan = tl.simulate();
      EXPECT_EQ(std::memcmp(&makespan, &solo.makespan_s, sizeof(double)), 0)
          << "timeline trial " << trial;
      expect_same_bits(tl.schedule(), solo.items[0], "timeline items", trial);
    }
    if (::testing::Test::HasFailure()) break;  // one trial's report is enough
  }
  // The sweep must reach both outcomes.
  EXPECT_GT(compared, 400);
  EXPECT_GT(deadlocked, 10);
}

// ---- per-signal cost model -------------------------------------------

TEST(FleetSched, CostModelTracksShapeAndDeviceSpeed) {
  const gpu::Options opts = gpu::Options::optimized();
  const sfft::Params small = make_params(1 << 12, 8, 1);
  const sfft::Params big = make_params(1 << 14, 8, 1);
  const auto spec = perfmodel::GpuSpec::k20x();

  EXPECT_GT(gpu::modeled_signal_cost_s(small, spec, opts), 0.0);
  // Bigger transforms cost more.
  EXPECT_GT(gpu::modeled_signal_cost_s(big, spec, opts),
            gpu::modeled_signal_cost_s(small, spec, opts));
  // A half-bandwidth device prices the same signal higher.
  EXPECT_GT(gpu::modeled_signal_cost_s(small, half_rate_k20x(), opts),
            gpu::modeled_signal_cost_s(small, spec, opts));
  // Modeled transfers add the H2D term.
  gpu::Options xfer = opts;
  xfer.include_transfer = true;
  EXPECT_GT(gpu::modeled_signal_cost_s(small, spec, xfer),
            gpu::modeled_signal_cost_s(small, spec, opts));
}

// ---- mixed-shape fleet execution -------------------------------------

TEST(FleetSched, MixedShapeBitIdenticalToPerSignalSingleDevice) {
  struct Shape {
    std::size_t n, k;
    u64 seed;
  };
  const Shape shapes[] = {{1 << 10, 4, 11}, {1 << 11, 8, 22},
                          {1 << 12, 16, 33}};
  // Two deterministic shuffles of the shape set — order must not matter.
  const std::size_t mixes[][8] = {{0, 1, 2, 2, 0, 1, 0, 2},
                                  {2, 2, 1, 0, 1, 2, 0, 0}};
  const gpu::Options opts = gpu::Options::optimized();

  for (const auto& mix : mixes) {
    std::vector<cvec> sigs;
    for (std::size_t i = 0; i < 8; ++i)
      sigs.push_back(
          test_signal(shapes[mix[i]].n, shapes[mix[i]].k, 1000 + i));
    std::vector<gpu::MixedSignal> batch;
    for (std::size_t i = 0; i < 8; ++i)
      batch.push_back({sigs[i], make_params(shapes[mix[i]].n,
                                            shapes[mix[i]].k,
                                            shapes[mix[i]].seed)});

    // Reference: every signal through a single-device plan of its shape.
    cusim::Device solo;
    std::map<std::size_t, std::unique_ptr<gpu::GpuPlan>> ref;
    std::vector<SparseSpectrum> expected;
    for (std::size_t i = 0; i < 8; ++i) {
      auto& plan = ref[mix[i]];
      if (!plan)
        plan = std::make_unique<gpu::GpuPlan>(solo, batch[i].params, opts);
      expected.push_back(plan->execute(sigs[i]));
    }

    auto check_fleet = [&](DeviceGroup& group, const char* what) {
      gpu::MultiGpuPlan mplan(group, batch[0].params, opts);
      gpu::GpuFleetStats fs;
      const auto got = mplan.execute_mixed(batch, &fs);
      expect_identical(expected, got, what);
      EXPECT_EQ(fs.signals, 8u);
      ASSERT_EQ(fs.per_signal.size(), 8u);
      ASSERT_EQ(fs.device_of.size(), 8u);
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(fs.per_signal[i].candidates, got[i].size())
            << what << " signal " << i;
    };
    DeviceGroup pair(2);
    check_fleet(pair, "homogeneous pair");
    DeviceGroup skewed({perfmodel::GpuSpec::k20x(), half_rate_k20x()});
    check_fleet(skewed, "heterogeneous fleet");
  }
}

// ---- golden LPT placement ---------------------------------------------

TEST(FleetSched, GoldenShardAndNodeAssignment) {
  // Literal assignment vectors of the cost-model LPT pass, pinned so any
  // rewrite of the placement loop (sort stability, strict-< ties, the
  // NIC surcharge on a remote node's first signal) must reproduce them.
  const gpu::Options opts = gpu::Options::optimized();
  const sfft::Params big = make_params(1 << 13, 16, 1);
  const sfft::Params mid = make_params(1 << 12, 8, 2);
  const sfft::Params small = make_params(1 << 10, 4, 3);
  using Assign = std::vector<std::size_t>;

  // Heterogeneous pair, mixed shapes with repeated (equal-cost) entries.
  DeviceGroup hetero({perfmodel::GpuSpec::k20x(), half_rate_k20x()});
  gpu::MultiGpuPlan mplan(hetero, small, opts);
  const std::vector<sfft::Params> fleet_batch = {
      small, big, mid, small, big, small, mid, mid, small, big, small};
  EXPECT_EQ(mplan.shard_assignment(fleet_batch),
            (Assign{0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1}));
  // Uniform and longer than 16 signals: every cost ties, so an unstable
  // sort would change which signal lands where.
  EXPECT_EQ(mplan.shard_assignment(20),
            (Assign{0, 1, 0, 0, 1, 0, 0, 1, 0, 0,
                    1, 0, 0, 1, 0, 0, 1, 0, 0, 1}));

  // Cluster node split: a remote node pays NIC staging on its first
  // signal, the head node never does; a 3 Gbit/s fabric makes that
  // surcharge decide placements (at the default 100 Gbit/s it does not).
  const std::vector<sfft::Params> cluster_batch = {
      mid, small, big, small, small, mid, big, small, small};
  cusim::Cluster c22(2, 2);
  EXPECT_EQ(gpu::ClusterPlan(c22, big, opts).node_assignment(cluster_batch),
            (Assign{0, 0, 0, 1, 0, 1, 1, 1, 0}));
  cusim::Cluster c31(3, 1);
  EXPECT_EQ(gpu::ClusterPlan(c31, big, opts).node_assignment(cluster_batch),
            (Assign{2, 0, 0, 1, 0, 2, 1, 1, 2}));
  c22.set_nic(cusim::NicModel::FromGbps(3));
  c31.set_nic(cusim::NicModel::FromGbps(3));
  EXPECT_EQ(gpu::ClusterPlan(c22, big, opts).node_assignment(cluster_batch),
            (Assign{0, 0, 0, 0, 1, 1, 1, 0, 1}));
  EXPECT_EQ(gpu::ClusterPlan(c31, big, opts).node_assignment(cluster_batch),
            (Assign{2, 2, 0, 1, 2, 0, 1, 0, 1}));
}

TEST(FleetSched, LptSplitsSkewedBatchAcrossDevices) {
  // [big, small, big, small x5]: counting signals would balance 4/4 and
  // pile both expensive transforms onto device 0. LPT prices the bigs
  // and separates them, finishing both devices together.
  const sfft::Params big = make_params(1 << 13, 16, 77);
  const sfft::Params small = make_params(1 << 10, 4, 78);
  std::vector<sfft::Params> shapes = {big,   small, big,   small,
                                      small, small, small, small};
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;

  std::vector<cvec> sigs;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    sigs.push_back(test_signal(shapes[i].n, shapes[i].k, 3000 + i));
  std::vector<gpu::MixedSignal> batch;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    batch.push_back({sigs[i], shapes[i]});

  DeviceGroup group(2);
  gpu::MultiGpuPlan lpt(group, big, opts);
  gpu::GpuFleetStats fs;
  const auto got = lpt.execute_mixed(batch, &fs, gpu::BatchMode::kPipelined);
  ASSERT_EQ(fs.device_of.size(), shapes.size());
  EXPECT_NE(fs.device_of[0], fs.device_of[2]) << "LPT must separate the bigs";
  // 1.00013 when this test was written; piling both bigs onto one device
  // (the unit-weight split) measured 1.288.
  EXPECT_LT(fs.imbalance, 1.0005);

  cusim::Device solo;
  gpu::GpuPlan plan_big(solo, big, opts);
  gpu::GpuPlan plan_small(solo, small, opts);
  std::vector<SparseSpectrum> expected;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    expected.push_back(
        (shapes[i].n == big.n ? plan_big : plan_small).execute(sigs[i]));
  expect_identical(expected, got, "fleet vs per-signal single device");
}

TEST(FleetSched, FleetStatsReportStagingPolicy) {
  const std::size_t n = 1 << 11, k = 8, batch_n = 6;
  const sfft::Params params = make_params(n, k, 550);
  gpu::Options opts = gpu::Options::optimized();
  opts.include_transfer = true;
  std::vector<cvec> sigs;
  for (std::size_t i = 0; i < batch_n; ++i)
    sigs.push_back(test_signal(n, k, 5000 + i));
  std::vector<std::span<const cplx>> views(sigs.begin(), sigs.end());

  auto run = [&](PcieStaging staging, gpu::GpuFleetStats& fs) {
    DeviceGroup group(2);
    group.set_staging(staging);
    gpu::MultiGpuPlan mplan(group, params, opts);
    return mplan.execute_many(views, &fs);
  };
  gpu::GpuFleetStats unlimited, staged;
  const auto out_u = run(PcieStaging::Unlimited(), unlimited);
  const auto out_s = run(PcieStaging::RoundRobin(), staged);
  expect_identical(out_u, out_s, "staging policies");

  EXPECT_EQ(unlimited.staging, "unlimited");
  EXPECT_EQ(unlimited.pcie_queue_ms, 0.0);
  EXPECT_GT(unlimited.pcie_stall_ms, 0.0);

  EXPECT_EQ(staged.staging, "round-robin");
  // One copy in flight at a time: admission waits replace bandwidth
  // sharing entirely.
  EXPECT_GT(staged.pcie_queue_ms, 0.0);
  EXPECT_NEAR(staged.pcie_stall_ms, 0.0, 1e-9);  // rounding residue only
}

}  // namespace
}  // namespace cusfft
