// google-benchmark microbenchmarks for the primitive layers: host FFT,
// binning, estimation, device sort/scan/select, and timeline simulation.
// These measure *this machine's* functional throughput (not modeled GPU
// time) — useful for tracking regressions in the hot loops.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/rng.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "custhrust/scan.hpp"
#include "custhrust/select.hpp"
#include "custhrust/sort.hpp"
#include "fft/fft.hpp"
#include "sfft/comb.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"
#include "signal/generate.hpp"

namespace {

using namespace cusfft;

cvec random_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = cplx{rng.next_normal(), rng.next_normal()};
  return x;
}

// Out of place from one fixed random input. Transforming one buffer in
// place every iteration grows the (unnormalized) values by about sqrt(n)
// per pass until they overflow to Inf and NaN, and the row then times the
// NaN fallback instead of the butterflies.
void BM_HostFft(benchmark::State& state) {
  const std::size_t n = 1ULL << state.range(0);
  const cvec x = random_signal(n, 1);
  cvec y(n);
  fft::Plan plan(n, fft::Direction::kForward);
  for (auto _ : state) {
    plan.execute(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_HostFft)->Arg(10)->Arg(14)->Arg(18);

// Plan construction alone: the n/2 roots' cos/sin calls plus the blocked
// stages' twiddle copies. make_flat_filter, the window ifft and
// make_sparse_signal build a fresh plan per call, so this cost is paid as
// often as an execute.
void BM_HostFftPlan(benchmark::State& state) {
  const std::size_t n = 1ULL << state.range(0);
  for (auto _ : state) {
    fft::Plan plan(n, fft::Direction::kForward);
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_HostFftPlan)->Arg(14)->Arg(16)->Arg(18);

void BM_HostFftBluestein(benchmark::State& state) {
  const std::size_t n = 10000;  // non-power-of-two
  cvec x = random_signal(n, 2);
  fft::Plan plan(n, fft::Direction::kForward);
  for (auto _ : state) {
    plan.execute(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_HostFftBluestein);

void BM_BinPermuted(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, B = 1024;
  cvec x = random_signal(n, 3);
  auto filter = signal::make_flat_filter(n, B);
  sfft::LoopPerm perm{12345, mod_inverse(12345, n), 777};
  cvec z(B);
  for (auto _ : state) {
    sfft::bin_permuted(x, filter.time, perm, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(filter.time.size()));
}
BENCHMARK(BM_BinPermuted);

// Scalar reference loop (pre-SoA implementation) — kept benchmarked so the
// speedup of the blocked/SoA path above is visible in every bench run.
void BM_BinPermutedReference(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, B = 1024;
  cvec x = random_signal(n, 3);
  auto filter = signal::make_flat_filter(n, B);
  sfft::LoopPerm perm{12345, mod_inverse(12345, n), 777};
  cvec z(B);
  for (auto _ : state) {
    sfft::bin_permuted_reference(x, filter.time, perm, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(filter.time.size()));
}
BENCHMARK(BM_BinPermutedReference);

void BM_EstimateCoef(benchmark::State& state) {
  const std::size_t n = 1ULL << 14, B = 256, L = 8;
  Rng rng(4);
  auto filter = signal::make_flat_filter(n, B);
  auto perms = sfft::draw_loop_perms(n, L, rng);
  std::vector<cvec> buckets(L, cvec(B, cplx{1.0, 0.5}));
  for (auto _ : state) {
    auto v = sfft::estimate_coef(1234, perms, buckets, filter.freq, n, B);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_EstimateCoef);

void BM_DeviceRadixSort(benchmark::State& state) {
  const std::size_t B = 1ULL << state.range(0);
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    cusim::Device dev;
    dev.begin_capture();
    cusim::DeviceBuffer<double> keys(B);
    cusim::DeviceBuffer<u32> vals(B);
    for (std::size_t i = 0; i < B; ++i) {
      keys.host()[i] = rng.next_normal();
      vals.host()[i] = static_cast<u32>(i);
    }
    state.ResumeTiming();
    custhrust::sort_pairs_desc(dev, keys, vals);
    benchmark::DoNotOptimize(keys.host().data());
  }
}
BENCHMARK(BM_DeviceRadixSort)->Arg(10)->Arg(14);

void BM_DeviceScan(benchmark::State& state) {
  const std::size_t m = 1ULL << 14;
  for (auto _ : state) {
    state.PauseTiming();
    cusim::Device dev;
    dev.begin_capture();
    cusim::DeviceBuffer<u64> data(m);
    for (std::size_t i = 0; i < m; ++i) data.host()[i] = i % 7;
    state.ResumeTiming();
    custhrust::exclusive_scan(dev, data);
    benchmark::DoNotOptimize(data.host().data());
  }
}
BENCHMARK(BM_DeviceScan);

void BM_DeviceSelect(benchmark::State& state) {
  const std::size_t B = 1ULL << 14;
  cusim::Device dev;
  cusim::DeviceBuffer<cplx> buckets(B);
  Rng rng(6);
  for (auto& v : buckets.host())
    v = cplx{rng.next_normal() * 1e-3, rng.next_normal() * 1e-3};
  buckets.host()[100] = {1.0, 0.0};
  for (auto _ : state) {
    dev.begin_capture();
    auto r = custhrust::threshold_select(dev, buckets);
    benchmark::DoNotOptimize(r.indices.data());
  }
}
BENCHMARK(BM_DeviceSelect);

void BM_WarpTracerFinalize(benchmark::State& state) {
  // One traced warp of 32 lanes x 8 slots: half the slots coalesced, half
  // scattered over 1 MiB (the estimate/loc_recover mix).
  cusim::LaunchArena arena;
  cusim::WarpTracer tr;
  tr.reset(128, &arena);
  Rng rng(12);
  std::vector<u64> addrs(32 * 8);
  for (u32 lane = 0; lane < 32; ++lane)
    for (u32 s = 0; s < 8; ++s)
      addrs[lane * 8 + s] = s % 2 == 0
                                ? (u64{s} << 24) + lane * 16
                                : (u64{s} << 24) + rng.next_below(1 << 20);
  for (auto _ : state) {
    tr.clear();
    for (u32 lane = 0; lane < 32; ++lane)
      for (u32 s = 0; s < 8; ++s)
        tr.on_access(s, addrs[lane * 8 + s], 16, s == 7);
    auto t = tr.finalize();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 32 * 8);
}
BENCHMARK(BM_WarpTracerFinalize);

void BM_TracedScatterLaunch(benchmark::State& state) {
  // Algorithm 4's vote shape at n = 2^18: one thread per selected bucket,
  // each walking n/B = 64 score cells with u32 atomics. Not cacheable, so
  // every launch is traced — the per-signal cost graph replay cannot skip.
  constexpr std::size_t kN = 1 << 18, kThreads = 1024, kWidth = 64;
  cusim::Device dev;
  dev.set_parallel(false);
  cusim::DeviceBuffer<u32> score(kN);
  std::vector<u64> start(kThreads), step(kThreads);
  Rng rng(13);
  for (std::size_t i = 0; i < kThreads; ++i) {
    start[i] = rng.next_below(kN);
    step[i] = rng.next_odd_below(kN);
  }
  for (auto _ : state) {
    dev.begin_capture();
    dev.launch(cusim::LaunchCfg::for_elements("scatter_vote", kThreads),
               [&](cusim::ThreadCtx& t) {
                 const u64 i = t.global_id();
                 u64 loc = start[i];
                 for (std::size_t w = 0; w < kWidth; ++w) {
                   score.atomic_add(t, loc, u32{1});
                   loc = (loc + step[i]) & (kN - 1);
                 }
               });
    benchmark::DoNotOptimize(score.host().data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kThreads *
                          kWidth);
}
BENCHMARK(BM_TracedScatterLaunch);

void BM_TimelineSimulate(benchmark::State& state) {
  // Rebuild the event list every iteration: simulate() caches its result
  // while the timeline is unchanged, so submitting outside the loop would
  // only measure the cached-makespan fast path.
  for (auto _ : state) {
    cusim::Timeline tl(32);
    for (int i = 0; i < 512; ++i)
      tl.submit({"k", static_cast<cusim::StreamId>(i % 32),
                 cusim::Resource::kDeviceMemory, 1e-4, 1e-5});
    double t = tl.simulate();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 512);
}
BENCHMARK(BM_TimelineSimulate);

void BM_ClusterSimulate(benchmark::State& state) {
  // The cluster merge path end to end: per-node device work, NIC ingress
  // staging, a cross-node exchange behind an exchange barrier, then the
  // two-phase NIC waterfill + schedule merge. Rebuilt every iteration
  // (like BM_TimelineSimulate) so the cached-makespan fast path is not
  // what gets measured.
  cusim::Cluster cluster(2, 2);
  const auto body = [](cusim::ThreadCtx&) {};
  for (auto _ : state) {
    cluster.begin_capture();
    for (std::size_t m = 0; m < cluster.nodes(); ++m) {
      cluster.add_ingress(static_cast<unsigned>(m), "stage", 1 << 16);
      for (std::size_t d = 0; d < cluster.node(m).size(); ++d) {
        cusim::Device& dev = cluster.node(m).device(d);
        for (int i = 0; i < 16; ++i)
          dev.launch(cusim::LaunchCfg::for_elements("k", 256), body);
      }
    }
    cluster.add_exchange(1, 0, "gather", 1 << 16);
    cluster.mark_exchange_barrier(0);
    cluster.node(0).device(0).sync_point();
    cluster.node(0).device(0).launch(
        cusim::LaunchCfg::for_elements("reduce", 256), body);
    auto s = cluster.simulate();
    benchmark::DoNotOptimize(s.makespan_s);
  }
  // 16 kernels x 4 devices + ingress/exchange/reduce items per iteration.
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 68);
}
BENCHMARK(BM_ClusterSimulate);

void BM_FleetSimulate(benchmark::State& state) {
  // A serve-shaped merged schedule on DeviceGroup(N): per device 1,800
  // items on 4 streams (a serve batch's kernels), a device-wide barrier
  // every 450 items and an H2D copy every 16th item. Built once:
  // DeviceGroup::simulate recomputes the merged schedule on every call
  // (only the per-device solo schedule behind the PCIe stall is cached).
  // BM_ClusterSimulate's 68 items are too few to show a per-event cost
  // that grows with the item count.
  const auto ndev = static_cast<std::size_t>(state.range(0));
  constexpr int kItems = 1800;
  cusim::DeviceGroup group(ndev);
  Rng rng(7);
  for (std::size_t d = 0; d < ndev; ++d) {
    cusim::Timeline& tl = group.device(d).timeline();
    for (int i = 0; i < kItems; ++i) {
      if (i > 0 && i % 450 == 0) tl.barrier();
      cusim::TimelineItem it;
      it.name = "k";
      it.stream = static_cast<cusim::StreamId>(i % 4);
      if (i % 16 == 0) {
        it.resource = cusim::Resource::kPcie;
        it.mem_s = 2e-5 * (1 + rng.next_double());
      } else {
        it.mem_s = 1e-5 * (1 + rng.next_double());
        it.compute_s = 5e-6 * rng.next_double();
      }
      tl.submit(std::move(it));
    }
  }
  for (auto _ : state) {
    const auto fs = group.simulate();
    benchmark::DoNotOptimize(fs.makespan_s);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kItems *
                          static_cast<i64>(ndev));
}
BENCHMARK(BM_FleetSimulate)->Arg(1)->Arg(2);

void BM_FlatFilterConstruction(benchmark::State& state) {
  const std::size_t n = 1ULL << 16, B = 512;
  for (auto _ : state) {
    auto f = signal::make_flat_filter(n, B);
    benchmark::DoNotOptimize(f.time.data());
  }
}
BENCHMARK(BM_FlatFilterConstruction);


void BM_ModMul(benchmark::State& state) {
  Rng rng(7);
  const u64 m = (1ULL << 61) - 1;
  u64 a = rng.next_u64() % m, b = rng.next_u64() % m;
  for (auto _ : state) {
    a = mod_mul(a, b, m);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModMul);

void BM_VoteLocations(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, B = 1024, cutoff = 64;
  sfft::LoopPerm perm{12345, mod_inverse(12345, n), 77};
  std::vector<u32> selected(cutoff);
  std::iota(selected.begin(), selected.end(), 0u);
  std::vector<std::uint8_t> score(n, 0);
  std::vector<u64> hits;
  for (auto _ : state) {
    std::fill(score.begin(), score.end(), 0);
    hits.clear();
    sfft::vote_locations(selected, perm, n, B, 1, score, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(cutoff * (n / B)));
}
BENCHMARK(BM_VoteLocations);

void BM_CombFilter(benchmark::State& state) {
  const std::size_t n = 1ULL << 18, W = 1024;
  Rng rng(8);
  const auto sig = signal::make_sparse_signal(n, 32, rng);
  const u64 taus[] = {11, 222};
  for (auto _ : state) {
    auto c = sfft::run_comb_filter(sig.x, W, 64, taus);
    benchmark::DoNotOptimize(c.approved.data());
  }
}
BENCHMARK(BM_CombFilter);

void BM_SerialSfftEndToEnd(benchmark::State& state) {
  const std::size_t n = 1ULL << state.range(0), k = 16;
  Rng rng(9);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  sfft::SerialPlan plan(p);
  for (auto _ : state) {
    auto out = plan.execute(sig.x);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SerialSfftEndToEnd)->Arg(14)->Arg(16);

void BM_Ffast(benchmark::State& state) {
  // The FFAST peeling backend end to end on the CPU reference plan —
  // tracked next to BM_SerialSfftEndToEnd so the crossover the auto
  // picker banks on (FFAST cheap at low k) stays visible in the gate.
  const std::size_t n = 1ULL << state.range(0), k = 16;
  Rng rng(9);
  const auto sig = signal::make_sparse_signal(n, k, rng);
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.algo = sfft::Algorithm::kFfast;
  sfft::FfastPlan plan(p);
  for (auto _ : state) {
    auto out = plan.execute(sig.x);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Ffast)->Arg(14)->Arg(16);

void BM_MedianComplex(benchmark::State& state) {
  Rng rng(10);
  cvec v(15);
  for (auto& c : v) c = cplx{rng.next_normal(), rng.next_normal()};
  for (auto _ : state) {
    cvec copy = v;
    auto m = sfft::median_complex(copy);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MedianComplex);

}  // namespace

BENCHMARK_MAIN();
