// Tests for the CUDA-like simulator: functional execution, coalescing
// analysis, atomic conflict accounting, warp sampling, streams/timeline
// overlap, and PCIe copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusim/device.hpp"
#include "cusim/report.hpp"

namespace cusfft::cusim {
namespace {

TEST(LaunchCfg, ForElementsCoversCount) {
  const auto c = LaunchCfg::for_elements("k", 1000, 256);
  EXPECT_EQ(c.blocks, 4u);
  EXPECT_EQ(c.threads_per_block, 256u);
  const auto exact = LaunchCfg::for_elements("k", 1024, 256);
  EXPECT_EQ(exact.blocks, 4u);
}

TEST(DeviceBuffer, HostAccessAndBounds) {
  DeviceBuffer<int> buf(8);
  std::iota(buf.host().begin(), buf.host().end(), 0);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.host()[5], 5);
  ThreadCtx t;
  EXPECT_EQ(buf.load(t, 3), 3);
  EXPECT_THROW(buf.load(t, 8), std::out_of_range);
  // Distinct buffers get distinct device address ranges.
  DeviceBuffer<int> other(8);
  EXPECT_NE(buf.device_addr(), other.device_addr());
}

TEST(Device, KernelExecutesEveryThreadOnce) {
  Device dev;
  dev.begin_capture();
  DeviceBuffer<int> counts(1000);
  dev.launch(LaunchCfg::for_elements("inc", 1000), [&](ThreadCtx& t) {
    const u64 i = t.global_id();
    if (i < counts.size()) counts.atomic_add(t, i, 1);
  });
  for (int v : counts.host()) EXPECT_EQ(v, 1);
}

TEST(Device, CoalescedReadCountsMinimalTransactions) {
  Device dev;
  dev.set_max_traced_warps(1 << 20);  // trace everything
  dev.begin_capture();
  DeviceBuffer<double> in(4096), out(4096);
  dev.launch(LaunchCfg::for_elements("copy", 4096), [&](ThreadCtx& t) {
    const u64 i = t.global_id();
    out.store(t, i, in.load(t, i));
  });
  const auto& r = dev.report().at("copy");
  // 4096 doubles = 32 KiB; minimal 128B transactions = 256 per direction.
  EXPECT_NEAR(r.counters.coalesced_transactions, 512, 16);
  EXPECT_NEAR(r.counters.random_transactions, 0, 1e-9);
  EXPECT_NEAR(r.counters.bytes_useful, 2 * 4096 * 8, 1);
}

TEST(Device, StridedReadIsRandomTraffic) {
  Device dev;
  dev.set_max_traced_warps(1 << 20);
  dev.begin_capture();
  DeviceBuffer<double> in(1 << 16);
  DeviceBuffer<double> out(1 << 10);
  const std::size_t stride = 64;  // 512B apart: one transaction per lane
  dev.launch(LaunchCfg::for_elements("strided", 1 << 10), [&](ThreadCtx& t) {
    const u64 i = t.global_id();
    out.store(t, i, in.load(t, i * stride));
  });
  const auto& r = dev.report().at("strided");
  // Reads: 1024 lanes, each its own 128B segment -> 1024 random
  // transactions. Writes are coalesced (1024 doubles -> 64 transactions).
  EXPECT_NEAR(r.counters.random_transactions, 1024, 8);
  EXPECT_NEAR(r.counters.coalesced_transactions, 64, 8);
}

TEST(Device, RandomTrafficCostsMoreModelTime) {
  auto run = [](std::size_t stride) {
    Device dev;
    dev.set_max_traced_warps(1 << 20);
    dev.begin_capture();
    DeviceBuffer<double> in(1 << 20), out(1 << 14);
    dev.launch(LaunchCfg::for_elements("k", 1 << 14), [&](ThreadCtx& t) {
      const u64 i = t.global_id();
      out.store(t, i, in.load(t, (i * stride) % in.size()));
    });
    return dev.elapsed_model_ms();
  };
  EXPECT_GT(run(63), 3.0 * run(1));
}

TEST(Device, AtomicConflictDepthTracked) {
  Device dev;
  dev.set_max_traced_warps(1 << 20);
  dev.begin_capture();
  DeviceBuffer<u64> counter(16);
  dev.launch(LaunchCfg::for_elements("hammer", 4096), [&](ThreadCtx& t) {
    counter.atomic_add(t, 0, u64{1});  // everyone hits address 0
  });
  EXPECT_EQ(counter.host()[0], 4096u);
  const auto& r = dev.report().at("hammer");
  EXPECT_NEAR(r.counters.max_atomic_conflict, 4096, 1);
  EXPECT_NEAR(r.counters.atomic_ops, 4096, 1);
}

TEST(Device, SpreadAtomicsHaveShallowConflicts) {
  Device dev;
  dev.set_max_traced_warps(1 << 20);
  dev.begin_capture();
  DeviceBuffer<u64> counters(4096);
  dev.launch(LaunchCfg::for_elements("spread", 4096), [&](ThreadCtx& t) {
    counters.atomic_add(t, t.global_id(), u64{1});
  });
  const auto& r = dev.report().at("spread");
  EXPECT_NEAR(r.counters.max_atomic_conflict, 1, 1e-9);
}

TEST(Device, WarpSamplingExtrapolatesCounts) {
  // Exact trace vs heavy sampling must agree within a few percent on a
  // uniform kernel.
  auto tx_count = [](u64 max_warps) {
    Device dev;
    dev.set_max_traced_warps(max_warps);
    dev.begin_capture();
    DeviceBuffer<double> in(1 << 18), out(1 << 18);
    dev.launch(LaunchCfg::for_elements("copy", 1 << 18), [&](ThreadCtx& t) {
      const u64 i = t.global_id();
      out.store(t, i, in.load(t, i));
    });
    const auto& c = dev.report().at("copy").counters;
    return c.coalesced_transactions + c.random_transactions;
  };
  const double exact = tx_count(1 << 20);
  const double sampled = tx_count(64);
  EXPECT_NEAR(sampled / exact, 1.0, 0.05);
}

TEST(Device, FlopsAccumulateAcrossThreads) {
  Device dev;
  dev.begin_capture();
  dev.launch(LaunchCfg::for_elements("fma", 1024),
             [&](ThreadCtx& t) { t.add_flops(8); });
  EXPECT_NEAR(dev.report().at("fma").counters.flops, 8.0 * 1024, 1e-6);
}

TEST(Device, UploadDownloadRoundTripAndPcieTime) {
  Device dev;
  dev.begin_capture();
  std::vector<double> host(1 << 16);
  std::iota(host.begin(), host.end(), 0.0);
  DeviceBuffer<double> buf(host.size());
  dev.upload(buf, std::span<const double>(host));
  std::vector<double> back(host.size());
  dev.download(std::span<double>(back), buf);
  EXPECT_EQ(back, host);
  const double ms = dev.elapsed_model_ms();
  // 2 x 512 KiB over 6 GB/s plus 2 x 10us latency.
  const double expect_ms =
      2 * (host.size() * 8.0 / dev.spec().pcie_bandwidth_Bps +
           dev.spec().pcie_latency_s) *
      1e3;
  EXPECT_NEAR(ms, expect_ms, expect_ms * 0.05);
}

TEST(Device, UploadSizeMismatchThrows) {
  Device dev;
  dev.begin_capture();
  DeviceBuffer<int> buf(4);
  std::vector<int> host(5);
  EXPECT_THROW(dev.upload(buf, std::span<const int>(host)),
               std::invalid_argument);
}

TEST(Timeline, SameStreamSerializes) {
  Timeline tl(32);
  TimelineItem a{"a", 0, Resource::kDeviceMemory, 1e-3, 0.0};
  TimelineItem b{"b", 0, Resource::kDeviceMemory, 1e-3, 0.0};
  tl.submit(a);
  tl.submit(b);
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-9);
  EXPECT_NEAR(tl.schedule()[1].start_s, 1e-3, 1e-9);
}

TEST(Timeline, MemBoundKernelsShareBandwidth) {
  // Two memory-bound kernels on different streams: total time equals the
  // sum (bandwidth is the shared resource) — no magic speedup.
  Timeline tl(32);
  tl.submit({"a", 1, Resource::kDeviceMemory, 1e-3, 0.0});
  tl.submit({"b", 2, Resource::kDeviceMemory, 1e-3, 0.0});
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-6);
}

TEST(Timeline, ComputeOverlapsMemory) {
  // A compute-bound kernel fully hides behind a memory-bound one.
  Timeline tl(32);
  tl.submit({"mem", 1, Resource::kDeviceMemory, 2e-3, 0.0});
  tl.submit({"cmp", 2, Resource::kDeviceMemory, 0.0, 1e-3});
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-6);
}

TEST(Timeline, PcieIsSeparateResource) {
  // A PCIe copy overlaps a device-memory kernel completely.
  Timeline tl(32);
  tl.submit({"kernel", 1, Resource::kDeviceMemory, 2e-3, 0.0});
  tl.submit({"h2d", 2, Resource::kPcie, 2e-3, 0.0});
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-6);
}

TEST(Timeline, ConcurrencyCapQueuesExtras) {
  // Cap 2: three pure-compute kernels of 1ms on distinct streams take 2ms.
  Timeline tl(2);
  tl.submit({"a", 1, Resource::kDeviceMemory, 0.0, 1e-3});
  tl.submit({"b", 2, Resource::kDeviceMemory, 0.0, 1e-3});
  tl.submit({"c", 3, Resource::kDeviceMemory, 0.0, 1e-3});
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-6);
}

TEST(Timeline, ClearResets) {
  Timeline tl(32);
  tl.submit({"a", 0, Resource::kDeviceMemory, 1e-3, 0.0});
  tl.simulate();
  tl.clear();
  EXPECT_EQ(tl.item_count(), 0u);
  EXPECT_NEAR(tl.simulate(), 0.0, 1e-12);
}

TEST(Timeline, ClearEventsRestartsIdsAndInvalidatesCache) {
  Timeline tl(32);
  tl.submit({"a", 1, Resource::kDeviceMemory, 1e-3, 0.0});
  const std::size_t e_old = tl.record_event();
  EXPECT_NEAR(tl.simulate(), 1e-3, 1e-9);
  EXPECT_NEAR(tl.event_time_s(e_old), 1e-3, 1e-9);

  tl.clear_events();
  // Old ids are invalid after the clear...
  EXPECT_THROW(tl.event_time_s(e_old), std::out_of_range);
  // ...and a new event that happens to reuse the same numeric id must read
  // the current timeline state — simulate() may not serve the makespan it
  // cached for the pre-clear event set (the stale-makespan hazard).
  tl.submit({"b", 1, Resource::kDeviceMemory, 1e-3, 0.0});
  const std::size_t e_new = tl.record_event();
  EXPECT_EQ(e_new, e_old);
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-9);
  EXPECT_NEAR(tl.event_time_s(e_new), 2e-3, 1e-9);
}

TEST(Timeline, ClearEventsAloneForcesRecompute) {
  // clear_events() with no new submissions: the next simulate() recomputes
  // (items unchanged, so the value matches) and freshly recorded events
  // resolve against that schedule.
  Timeline tl(32);
  tl.submit({"a", 1, Resource::kDeviceMemory, 1e-3, 0.0});
  const double first = tl.simulate();
  tl.clear_events();
  const std::size_t e = tl.record_event();
  EXPECT_DOUBLE_EQ(tl.simulate(), first);
  EXPECT_NEAR(tl.event_time_s(e), first, 1e-12);
}

TEST(Device, CaptureRegionsIndependent) {
  Device dev;
  dev.begin_capture();
  DeviceBuffer<double> buf(1 << 12);
  dev.launch(LaunchCfg::for_elements("k1", 1 << 12), [&](ThreadCtx& t) {
    buf.store(t, t.global_id(), 1.0);
  });
  const double first = dev.elapsed_model_ms();
  EXPECT_GT(first, 0.0);
  dev.begin_capture();
  EXPECT_NEAR(dev.elapsed_model_ms(), 0.0, 1e-12);
  EXPECT_TRUE(dev.report().empty());
}


TEST(Device, PartialWarpAtGridTail) {
  // 70 threads = 2 full warps + a 6-lane tail; every thread must run and
  // tracing must not crash or double-count.
  Device dev;
  dev.set_max_traced_warps(1 << 20);
  dev.begin_capture();
  DeviceBuffer<u64> sum(1);
  dev.launch(LaunchCfg::for_elements("tail", 70, 64), [&](ThreadCtx& t) {
    if (t.global_id() < 70) sum.atomic_add(t, 0, t.global_id());
  });
  EXPECT_EQ(sum.host()[0], 70u * 69u / 2);
}

TEST(Device, StagedStoreCountsSharedAndCoalesced) {
  Device dev;
  dev.set_max_traced_warps(1 << 20);
  dev.begin_capture();
  DeviceBuffer<double> out(1 << 12);
  const std::size_t stride = 61;  // scattered without staging
  dev.launch(LaunchCfg::for_elements("staged", 1 << 12), [&](ThreadCtx& t) {
    const u64 i = t.global_id();
    if (i >= out.size()) return;
    out.store_staged(t, (i * stride) % out.size(), i, 1.0 * i);
  });
  const auto& c = dev.report().at("staged").counters;
  EXPECT_GT(c.shared_accesses, 0.0);
  // The recorded global traffic is the dense burst: minimal transactions.
  EXPECT_NEAR(c.coalesced_transactions, (1 << 12) * 8.0 / 128.0, 16);
  EXPECT_NEAR(c.random_transactions, 0.0, 1.0);
  // And the values really landed at the scattered addresses.
  EXPECT_DOUBLE_EQ(out.host()[stride % out.size()], 1.0);
}

TEST(Device, SyncPointOrdersAcrossStreams) {
  // Without the barrier two equal kernels on different streams overlap
  // fully on compute; with it they serialize.
  auto run = [](bool barrier) {
    Device dev;
    dev.begin_capture();
    const LaunchCfg a{"a", 1, 32, 1};
    const LaunchCfg b{"b", 1, 32, 2};
    DeviceBuffer<double> buf(32);
    auto body = [&](ThreadCtx& t) {
      t.add_flops(1e9);  // ~1.4 ms of DP work: dwarfs launch overhead
      if (t.global_id() < buf.size()) buf.store(t, t.global_id(), 1.0);
    };
    dev.launch(a, body);
    if (barrier) dev.sync_point();
    dev.launch(b, body);
    return dev.elapsed_model_ms();
  };
  const double free_ms = run(false);
  const double ordered_ms = run(true);
  EXPECT_GT(ordered_ms, 1.7 * free_ms);
}

TEST(Device, AtomicScalingUnderSampling) {
  // With warp sampling, the extrapolated atomic-conflict depth must stay
  // within ~2x of the exact count for a uniform conflict pattern.
  auto conflict = [](u64 max_warps) {
    Device dev;
    dev.set_max_traced_warps(max_warps);
    dev.begin_capture();
    DeviceBuffer<u64> c(4);
    dev.launch(LaunchCfg::for_elements("atomics", 1 << 14),
               [&](ThreadCtx& t) { c.atomic_add(t, 0, u64{1}); });
    return dev.report().at("atomics").counters.max_atomic_conflict;
  };
  const double exact = conflict(1 << 20);
  const double sampled = conflict(32);
  EXPECT_NEAR(exact, 1 << 14, 1);
  EXPECT_GT(sampled, exact / 2);
  EXPECT_LT(sampled, exact * 2);
}

TEST(Timeline, BarrierAppliesOnlyToLaterItems) {
  Timeline tl(32);
  tl.submit({"a", 1, Resource::kDeviceMemory, 0.0, 1e-3, 0});
  tl.submit({"b", 2, Resource::kDeviceMemory, 0.0, 1e-3, 0});
  tl.barrier();
  tl.submit({"c", 3, Resource::kDeviceMemory, 0.0, 1e-3, 0});
  EXPECT_NEAR(tl.simulate(), 2e-3, 1e-6);  // a||b then c
  EXPECT_NEAR(tl.schedule()[2].start_s, 1e-3, 1e-6);
}

TEST(Timeline, ChainedBarriersSerializeEverything) {
  Timeline tl(32);
  for (int i = 0; i < 4; ++i) {
    tl.submit({"k", static_cast<StreamId>(i + 1), Resource::kDeviceMemory,
               0.0, 1e-3, 0});
    tl.barrier();
  }
  EXPECT_NEAR(tl.simulate(), 4e-3, 1e-6);
}

TEST(WarpTracerUnit, GroupsBySlotAndClassifies) {
  LaunchArena arena;
  WarpTracer tr;
  tr.reset(128, &arena);
  // Slot 0: 32 lanes reading 16B each, consecutive -> 4 coalesced tx.
  for (u32 lane = 0; lane < 32; ++lane)
    tr.on_access(0, 4096 + lane * 16, 16, false);
  // Slot 1: 32 lanes scattered 512B apart -> 32 random tx.
  for (u32 lane = 0; lane < 32; ++lane)
    tr.on_access(1, 1 << 20 | (lane * 512), 16, false);
  const WarpTotals t = tr.finalize();
  EXPECT_DOUBLE_EQ(t.coalesced_tx, 4);
  EXPECT_DOUBLE_EQ(t.random_tx, 32);
  EXPECT_DOUBLE_EQ(t.useful_bytes, 2 * 32 * 16);
}

TEST(WarpTracerUnit, StraddlingAccessCountsBothSegments) {
  LaunchArena arena;
  WarpTracer tr;
  tr.reset(128, &arena);
  tr.on_access(0, 120, 16, false);  // crosses the 128B boundary
  const WarpTotals t = tr.finalize();
  EXPECT_DOUBLE_EQ(t.coalesced_tx + t.random_tx, 2);
}

struct TraceRec {
  u32 slot;
  u64 addr;
  u32 bytes;
  bool atomic;
};

/// Brute-force statement of the Section IV.B rule: per slot, a std::set of
/// the 128-byte segments its accesses touch, classified by its byte volume.
WarpTotals reference_finalize(const std::vector<TraceRec>& recs) {
  constexpr u64 kTx = 128;
  std::map<u32, std::pair<std::set<u64>, double>> slots;
  WarpTotals out;
  for (const TraceRec& r : recs) {
    auto& [segs, bytes] = slots[r.slot];
    for (u64 s = r.addr / kTx; s <= (r.addr + r.bytes - 1) / kTx; ++s)
      segs.insert(s);
    bytes += r.bytes;
    if (r.atomic) out.atomic_ops += 1;
  }
  for (const auto& [slot, v] : slots) {
    const double tx = static_cast<double>(v.first.size());
    const double min_tx = std::max(1.0, std::ceil(v.second / kTx));
    out.useful_bytes += v.second;
    (tx <= 2.0 * min_tx ? out.coalesced_tx : out.random_tx) += tx;
  }
  return out;
}

/// One random warp: per slot an access pattern (broadcast, coalesced,
/// strided, scattered, or straddling 128-byte boundaries), lanes that
/// diverge out of later slots, and a sprinkling of atomics. Records are
/// emitted lane-major, the order a traced sweep produces.
std::vector<TraceRec> random_warp(Rng& rng) {
  const u32 slots = 1 + static_cast<u32>(rng.next_below(12));
  const u32 sizes[] = {1, 4, 8, 16, 32, 200};
  std::vector<u32> pattern(slots), bytes(slots);
  std::vector<u64> base(slots), stride(slots);
  for (u32 s = 0; s < slots; ++s) {
    pattern[s] = static_cast<u32>(rng.next_below(5));
    bytes[s] = sizes[rng.next_below(6)];
    base[s] = (u64{1} << 20) * (s + 1) + rng.next_below(4096);
    stride[s] = bytes[s] * (1 + rng.next_below(8));
  }
  std::vector<TraceRec> recs;
  for (u32 lane = 0; lane < 32; ++lane) {
    // Divergent lanes run only a prefix of the slots.
    const u32 active = rng.next_below(4) == 0
                           ? static_cast<u32>(rng.next_below(slots + 1))
                           : slots;
    for (u32 s = 0; s < active; ++s) {
      u64 addr = base[s];
      switch (pattern[s]) {
        case 0: break;                                   // broadcast
        case 1: addr += u64{lane} * bytes[s]; break;     // coalesced
        case 2: addr += u64{lane} * stride[s]; break;    // strided
        case 3: addr += rng.next_below(1 << 16); break;  // scattered
        default: addr += 120 + u64{lane} * 128; break;   // straddling
      }
      recs.push_back({s, addr, bytes[s], rng.next_below(8) == 0});
    }
  }
  return recs;
}

TEST(WarpTracerUnit, FinalizeMatchesBruteForceReference) {
  LaunchArena arena;
  WarpTracer tr;
  tr.reset(128, &arena);
  Rng rng(20160523);
  for (int warp = 0; warp < 2000; ++warp) {
    const std::vector<TraceRec> recs = random_warp(rng);
    tr.clear();
    for (const TraceRec& r : recs)
      tr.on_access(r.slot, r.addr, r.bytes, r.atomic);
    const WarpTotals got = tr.finalize();
    const WarpTotals want = reference_finalize(recs);
    ASSERT_EQ(got.coalesced_tx, want.coalesced_tx) << "warp " << warp;
    ASSERT_EQ(got.random_tx, want.random_tx) << "warp " << warp;
    ASSERT_EQ(got.useful_bytes, want.useful_bytes) << "warp " << warp;
    ASSERT_EQ(got.atomic_ops, want.atomic_ops) << "warp " << warp;
  }
}

TEST(WarpTracerUnit, WideWarpGrowsSegmentSetAndForgetsPreviousWarp) {
  LaunchArena arena;
  WarpTracer tr;
  tr.reset(128, &arena);
  // 64 slots x 32 lanes, every access in its own segment: far more
  // (slot, segment) pairs than the set starts with.
  std::vector<TraceRec> wide;
  for (u32 lane = 0; lane < 32; ++lane)
    for (u32 s = 0; s < 64; ++s)
      wide.push_back({s, (u64{s} * 32 + lane) * 4096, 8, false});
  for (int rep = 0; rep < 3; ++rep) {
    tr.clear();
    for (const TraceRec& r : wide)
      tr.on_access(r.slot, r.addr, r.bytes, r.atomic);
    const WarpTotals t = tr.finalize();
    // Segments seen by the previous warp must not count as present.
    EXPECT_EQ(t.random_tx, 64.0 * 32) << "rep " << rep;
    EXPECT_EQ(t.coalesced_tx, 0.0);
  }
}

TEST(AtomicConflictTableUnit, GrowsPastInitialCapacityAndMerges) {
  AtomicConflictTable a, b;
  const std::size_t distinct = 3 * AtomicConflictTable::kInitialCapacity;
  for (std::size_t i = 0; i < distinct; ++i) {
    a.add(i * 8, 1 + static_cast<u32>(i % 5));
    b.add(i * 8);
  }
  EXPECT_EQ(a.size(), distinct);
  EXPECT_GT(a.capacity(), AtomicConflictTable::kInitialCapacity);
  EXPECT_EQ(a.max(), 5u);
  a.absorb(b);
  EXPECT_EQ(a.size(), distinct);
  EXPECT_EQ(a.max(), 6u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.max(), 0u);
  a.clear();
  EXPECT_EQ(a.max(), 0u);
  a.add(16);
  EXPECT_EQ(a.max(), 1u);
}

TEST(Device, ManyAtomicAddressesExactConflictOnBothSweeps) {
  // More distinct atomic addresses than the conflict table's initial
  // capacity, with a skewed histogram, traced exactly: the deepest chain
  // must match a host histogram and agree between the sequential and the
  // block-parallel sweep.
  constexpr std::size_t kThreads = 1 << 15;
  constexpr std::size_t kCells = 3 * AtomicConflictTable::kInitialCapacity;
  auto cell = [](u64 i) { return (i * i * 2654435761u) % kCells; };
  std::vector<u32> hist(kCells, 0);
  for (u64 i = 0; i < kThreads; ++i) ++hist[cell(i)];
  const u32 deepest = *std::max_element(hist.begin(), hist.end());

  auto run = [&](bool parallel) {
    ThreadPool pool(4);
    Device dev;
    dev.set_parallel(parallel);
    dev.set_pool(&pool);
    dev.set_max_traced_warps(1 << 20);
    dev.begin_capture();
    DeviceBuffer<u32> counts(kCells);
    dev.launch(LaunchCfg::for_elements("scatter_atomics", kThreads),
               [&](ThreadCtx& t) {
                 counts.atomic_add(t, cell(t.global_id()), u32{1});
               });
    EXPECT_TRUE(std::equal(hist.begin(), hist.end(), counts.host().begin()));
    return dev.report().at("scatter_atomics").counters;
  };
  const auto seq = run(false);
  const auto par = run(true);
  EXPECT_EQ(seq.max_atomic_conflict, static_cast<double>(deepest));
  EXPECT_EQ(par.max_atomic_conflict, seq.max_atomic_conflict);
  EXPECT_EQ(par.atomic_ops, seq.atomic_ops);
  EXPECT_EQ(par.coalesced_transactions, seq.coalesced_transactions);
  EXPECT_EQ(par.random_transactions, seq.random_transactions);
}


TEST(Timeline, EventTimesTrackCompletion) {
  Timeline tl(32);
  const std::size_t e0 = tl.record_event();  // before anything
  tl.submit({"a", 0, Resource::kDeviceMemory, 0.0, 1e-3, 0});
  const std::size_t e1 = tl.record_event();
  tl.submit({"b", 0, Resource::kDeviceMemory, 0.0, 2e-3, 0});
  const std::size_t e2 = tl.record_event();
  tl.simulate();
  EXPECT_NEAR(tl.event_time_s(e0), 0.0, 1e-12);
  EXPECT_NEAR(tl.event_time_s(e1), 1e-3, 1e-9);
  EXPECT_NEAR(tl.event_time_s(e2), 3e-3, 1e-9);
  EXPECT_THROW(tl.event_time_s(99), std::out_of_range);
}

TEST(Device, EventApiMeasuresSpans) {
  Device dev;
  dev.begin_capture();
  DeviceBuffer<double> buf(1 << 14);
  const auto e0 = dev.record_event();
  dev.launch(LaunchCfg::for_elements("w", buf.size()), [&](ThreadCtx& t) {
    const u64 i = t.global_id();
    if (i < buf.size()) buf.store(t, i, 1.0);
  });
  const auto e1 = dev.record_event();
  const double span = dev.event_time_ms(e1) - dev.event_time_ms(e0);
  EXPECT_GT(span, 0.0);
  EXPECT_NEAR(span, dev.elapsed_model_ms(), 1e-9);
}


TEST(Device, CustomSpecScalesModeledTime) {
  perfmodel::GpuSpec slow = perfmodel::GpuSpec::k20x();
  slow.mem_bandwidth_Bps /= 4;
  auto run = [](perfmodel::GpuSpec spec) {
    Device dev(spec);
    dev.begin_capture();
    DeviceBuffer<double> in(1 << 16), out(1 << 16);
    dev.launch(LaunchCfg::for_elements("copy", 1 << 16), [&](ThreadCtx& t) {
      const u64 i = t.global_id();
      out.store(t, i, in.load(t, i));
    });
    return dev.elapsed_model_ms();
  };
  const double fast_ms = run(perfmodel::GpuSpec::k20x());
  const double slow_ms = run(slow);
  EXPECT_NEAR(slow_ms / fast_ms, 4.0, 0.5);
}


TEST(Report, TableListsKernels) {
  Device dev;
  dev.begin_capture();
  DeviceBuffer<double> buf(256);
  dev.launch(LaunchCfg::for_elements("alpha", 256), [&](ThreadCtx& t) {
    if (t.global_id() < 256) buf.store(t, t.global_id(), 1.0);
  });
  const ResultTable t = report_table(dev);
  EXPECT_EQ(t.rows(), 5u);  // one kernel row + four [pool ...] rows
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("[pool allocations]"), std::string::npos);
}

TEST(Timeline, EventBeforeAnyItemIsZero) {
  Timeline tl(32);
  const std::size_t e = tl.record_event();
  tl.simulate();  // empty timeline: event still resolvable
  EXPECT_DOUBLE_EQ(tl.event_time_s(e), 0.0);

  tl.clear();
  const std::size_t e2 = tl.record_event();
  tl.submit({"later", 0, Resource::kDeviceMemory, 1e-3, 0.0, 0});
  tl.simulate();
  // The event predates every item, so completing work can't move it.
  EXPECT_DOUBLE_EQ(tl.event_time_s(e2), 0.0);
}

TEST(Timeline, EventAfterBarrierSeesAllPriorWork) {
  Timeline tl(32);
  tl.submit({"s0", 0, Resource::kDeviceMemory, 0.0, 1e-3, 0});
  tl.submit({"s1", 1, Resource::kDeviceMemory, 0.0, 4e-3, 0});
  tl.barrier();
  const std::size_t e = tl.record_event();
  tl.submit({"tail", 2, Resource::kDeviceMemory, 0.0, 1e-3, 0});
  const double makespan = tl.simulate();
  // The event covers both pre-barrier streams (slowest: 4 ms), and the
  // post-barrier item starts no earlier than that.
  EXPECT_NEAR(tl.event_time_s(e), 4e-3, 1e-9);
  EXPECT_NEAR(makespan, 5e-3, 1e-9);
  EXPECT_GE(tl.schedule().back().start_s, 4e-3 - 1e-12);
}

TEST(Timeline, DeadlockedTimelineThrows) {
  // "b" waits for "c", which waits for "b": neither can ever start. A
  // silent stop would leave both at finish_s == 0 and report the 1 ms of
  // "a" as the makespan.
  Timeline tl(32);
  tl.submit({"a", 0, Resource::kDeviceMemory, 0.0, 1e-3});
  const std::size_t c_index = 2;
  tl.submit({"b", 1, Resource::kDeviceMemory, 0.0, 1e-3},
            std::span<const std::size_t>(&c_index, 1));
  const std::size_t b_index = 1;
  tl.submit({"c", 2, Resource::kDeviceMemory, 0.0, 1e-3},
            std::span<const std::size_t>(&b_index, 1));
  try {
    tl.simulate();
    FAIL() << "expected Timeline::simulate to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("2 of 3"), std::string::npos)
        << e.what();
  }
  // Still dirty: a second call re-runs and throws again rather than
  // serving a cached makespan.
  EXPECT_THROW(tl.simulate(), std::runtime_error);
}

TEST(Timeline, RepeatedSimulateIsIdempotent) {
  Timeline tl(4);
  for (int i = 0; i < 8; ++i)
    tl.submit({"k" + std::to_string(i), static_cast<StreamId>(i % 3),
               Resource::kDeviceMemory, 1e-3, 5e-4, 0});
  const std::size_t e = tl.record_event();
  const double first = tl.simulate();
  const auto sched = tl.schedule();
  const double t_first = tl.event_time_s(e);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_DOUBLE_EQ(tl.simulate(), first);
    EXPECT_DOUBLE_EQ(tl.event_time_s(e), t_first);
    ASSERT_EQ(tl.schedule().size(), sched.size());
    for (std::size_t i = 0; i < sched.size(); ++i) {
      EXPECT_DOUBLE_EQ(tl.schedule()[i].start_s, sched[i].start_s);
      EXPECT_DOUBLE_EQ(tl.schedule()[i].finish_s, sched[i].finish_s);
    }
  }
}

}  // namespace
}  // namespace cusfft::cusim
