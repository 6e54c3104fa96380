// Fleet scheduler regression sweep: per-device dependency scoping,
// deadlock detection, PCIe staging admission policies, interval-union
// busy accounting, the per-signal cost model, and mixed-shape fleet
// execution. The raw-timeline tests inject TimelineItems directly
// (Device::timeline() mutable access) to reach schedules the kernel API
// cannot produce — dangling deps, cycles, bare concurrent copies.
#include <gtest/gtest.h>

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
