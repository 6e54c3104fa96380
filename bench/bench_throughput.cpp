// Throughput bench: signals/sec of the optimized GPU backend when many
// same-shape signals flow through one plan. Three configurations at
// n = 2^min_logn (CUSFFT_MIN_LOGN / --min-logn), batch size CUSFFT_BATCH:
//   cold_plan    — a fresh GpuPlan per signal (what a naive caller pays;
//                  with the filter cache and buffer pool warm, plan cost is
//                  permutation setup + filter upload, not two length-n FFTs);
//   execute      — one plan, N independent execute() calls;
//   execute_many — one plan, one batched call (no per-call capture reset).
// host_sps is functional-simulation wall throughput on this container;
// model_ms_per_signal is the modeled device time and must not depend on
// which configuration ran.
//
// --serve switches to the serving-tier replay instead: a multi-tenant
// arrival trace (canned or --serve-in) is driven through
// cusfft::serve::Server twice (the decision traces must match — the
// deterministic-replay gate) plus once in single-request mode
// (max_batch=1, zero wait), and the bench reports per-SLO-class p50/p99
// modeled latency and sustained QPS. Exit is nonzero unless the replay is
// reproducible and batched serving beats per-request execution on QPS.
// --serve-out writes the first replay's float-free decision trace and
// --serve-schedule-out its schedule trace (virtual times): the two goldens
// CI diffs.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device.hpp"
#include "cusim/device_group.hpp"
#include "cusim/metrics.hpp"
#include "cusim/pool.hpp"
#include "sfft/serial.hpp"
#include "signal/filter.hpp"

using namespace cusfft;
using namespace cusfft::bench;

namespace {

std::string slurp_or_exit(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "bench_throughput: cannot read " << path << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct ServeRun {
  serve::GpuServeStats stats;
  std::string decisions;
  std::string schedule;
  double host_ms = 0;
};

ServeRun run_trace(const serve::ServerConfig& cfg, const serve::Trace& tr,
                   u64 seed) {
  serve::Server s(cfg);
  WallTimer wall;
  serve::replay(s, tr, seed);
  ServeRun r;
  r.host_ms = wall.ms();
  r.stats = s.stats();
  r.decisions = s.decision_trace();
  r.schedule = s.schedule_trace();
  return r;
}

int run_serve(const BenchOpts& o) {
  const std::size_t n = 1ULL << o.min_logn;
  const std::size_t k = std::min(o.k, n / 8);

  serve::ServerConfig base;
  base.devices = o.devices;
  // Small enough that the canned trace's charlie bursts overflow it, so
  // the replay exercises the rejection path (CUSFFT_SERVE_QUEUE_DEPTH
  // overrides).
  base.tenant_queue_depth = 4;
  const serve::ServerConfig cfg = serve_config_or_exit(base);

  serve::Trace tr;
  if (!o.serve_in.empty()) {
    try {
      tr = serve::Trace::parse(slurp_or_exit(o.serve_in));
    } catch (const std::invalid_argument& e) {
      std::cerr << "bench_throughput: " << o.serve_in << ": " << e.what()
                << "\n";
      return 2;
    }
  } else {
    tr = serve::canned_trace(n, k, o.seed);
  }

  std::cout << "Serve: " << tr.events.size()
            << " arrivals, devices=" << cfg.devices
            << " max_batch=" << cfg.max_batch << " wait_ms="
            << cfg.max_wait_latency_ms << "/" << cfg.max_wait_throughput_ms
            << " queue_depth=" << cfg.tenant_queue_depth << "\n\n";

  const ServeRun run1 = run_trace(cfg, tr, o.seed);
  // Mid-run snapshot between the two (drained) replays: the serve
  // counters are published incrementally, so tools/metrics_check can
  // verify monotonicity against the final snapshot.
  if (!o.metrics.empty()) write_metrics_json(o.metrics + ".snap1.json");
  const ServeRun run2 = run_trace(cfg, tr, o.seed);

  // Per-request baseline: same trace and fleet, but every request
  // launches as its own batch the moment the device frees up.
  serve::ServerConfig single = cfg;
  single.max_batch = 1;
  single.max_wait_latency_ms = 0;
  single.max_wait_throughput_ms = 0;
  const ServeRun solo = run_trace(single, tr, o.seed);

  const bool deterministic =
      run1.decisions == run2.decisions && run1.schedule == run2.schedule;
  const bool faster = run1.stats.sustained_qps > solo.stats.sustained_qps;

  ResultTable t(
      {"mode", "class", "completed", "p50_ms", "p99_ms", "mean_ms", "qps"});
  auto add_class = [&](const char* mode, const ServeRun& r, const char* cls,
                       const serve::ClassLatency& l) {
    t.add_row({mode, cls, std::to_string(l.count), ResultTable::num(l.p50_ms),
               ResultTable::num(l.p99_ms), ResultTable::num(l.mean_ms),
               ResultTable::num(r.stats.sustained_qps)});
  };
  add_class("serve_batched", run1, "latency", run1.stats.latency);
  add_class("serve_batched", run1, "throughput", run1.stats.throughput);
  add_class("serve_single", solo, "latency", solo.stats.latency);
  add_class("serve_single", solo, "throughput", solo.stats.throughput);

  auto show = [](const char* name, const serve::GpuServeStats& s) {
    std::printf("%-9s %3zu completed / %zu shed / %zu rejected in %zu "
                "batches, fill %.2f, horizon %.3f ms, %.1f qps\n",
                name, s.completed, s.shed, s.rejected, s.batches,
                s.mean_batch_fill, s.virtual_ms, s.sustained_qps);
  };
  show("batched:", run1.stats);
  show("single:", solo.stats);
  std::printf("batched vs single: %.1f vs %.1f sustained qps (%.2fx), "
              "replay %s\n\n",
              run1.stats.sustained_qps, solo.stats.sustained_qps,
              solo.stats.sustained_qps > 0
                  ? run1.stats.sustained_qps / solo.stats.sustained_qps
                  : 0.0,
              deterministic ? "deterministic" : "MISMATCH");

  if (!o.serve_out.empty()) {
    std::ofstream f(o.serve_out);
    if (!f) {
      std::cerr << "bench_throughput: cannot write " << o.serve_out << "\n";
      return 2;
    }
    f << run1.decisions;
    std::cout << "wrote decision trace: " << o.serve_out << "\n";
  }
  if (!o.serve_schedule_out.empty()) {
    std::ofstream f(o.serve_schedule_out);
    if (!f) {
      std::cerr << "bench_throughput: cannot write " << o.serve_schedule_out
                << "\n";
      return 2;
    }
    f << run1.schedule;
    std::cout << "wrote schedule trace: " << o.serve_schedule_out << "\n";
  }

  emit(o, "serve", t);
  run1.stats.to_metrics(cusim::MetricsRegistry::global());
  if (!o.json.empty())
    write_results_json(o.json, "serve",
                       {{"serve_batched", run1.host_ms, run1.stats.virtual_ms},
                        {"serve_single", solo.host_ms, solo.stats.virtual_ms}},
                       cusim::MetricsRegistry::global().expose_json());
  if (!o.metrics.empty()) write_metrics_artifacts(o.metrics);
  return deterministic && faster ? 0 : 1;
}

// --algo auto: crossover sweep. Calibrates a (n, k, noise) grid — each
// cell runs BOTH backends once (the oracle) — then asks the picker for
// its choice and checks the picked backend's modeled time against the
// oracle's best. Emits <out-dir>/crossover.csv; exit is nonzero unless
// the picker matches the faster backend (within 5%) on >= 90% of cells.
int run_crossover(const BenchOpts& o) {
  const gpu::Options opts = gpu::Options::optimized();
  const perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x();
  const double noises[] = {0.0, 0.01};
  std::vector<std::size_t> ks;
  for (std::size_t k = 4; k <= o.k; k *= 4) ks.push_back(k);
  if (ks.empty()) ks.push_back(o.k);

  std::cout << "Crossover sweep: n=2^" << o.min_logn << "..2^" << o.max_logn
            << ", k in {4,16,...," << ks.back() << "}, noise in {0, 0.01}, "
            << "picker=" << gpu::to_string(gpu::autopick_mode_from_env())
            << " on " << spec.name << "\n\n";

  ResultTable t({"n", "k", "noise", "cusfft_ms", "ffast_ms", "oracle",
                 "picked", "match"});
  std::size_t cells = 0, matched = 0;
  double auto_total_ms = 0, oracle_total_ms = 0;
  for (std::size_t logn = o.min_logn; logn <= o.max_logn; logn += 2) {
    const std::size_t n = 1ULL << logn;
    for (const std::size_t k : ks) {
      if (k > n / 8) continue;
      for (const double noise : noises) {
        const sfft::Params p = paper_params(n, k, o.seed);
        const gpu::CrossoverCell cell =
            gpu::calibrate_cell(p, spec, opts, noise);
        sfft::Params pa = p;
        pa.algo = sfft::Algorithm::kAuto;
        const sfft::Algorithm picked =
            gpu::resolve_algorithm(pa, spec, opts);
        const double auto_ms = picked == sfft::Algorithm::kFfast
                                   ? cell.ffast_ms
                                   : cell.cusfft_ms;
        const double best_ms = std::min(cell.cusfft_ms, cell.ffast_ms);
        const bool match = auto_ms <= 1.05 * best_ms;
        ++cells;
        matched += match ? 1 : 0;
        auto_total_ms += auto_ms;
        oracle_total_ms += best_ms;
        t.add_row({std::to_string(n), std::to_string(k),
                   ResultTable::num(noise, 2), ResultTable::num(cell.cusfft_ms),
                   ResultTable::num(cell.ffast_ms),
                   sfft::to_string(cell.winner), sfft::to_string(picked),
                   match ? "yes" : "NO"});
      }
    }
  }
  if (!o.metrics.empty()) write_metrics_json(o.metrics + ".snap1.json");

  // Drive the picker through the real execution path too: a small kAuto
  // batch through the fleet. execute_mixed resolves each signal against
  // device 0's spec and records the chosen backend per signal (and in
  // cusfft_algo_signals_total / cusfft_algo_picks_total).
  const std::size_t n_demo = 1ULL << o.min_logn;
  const std::size_t k_hi = std::max<std::size_t>(4, std::min(o.k, n_demo / 8));
  std::vector<cvec> demo_store;
  std::vector<gpu::MixedSignal> demo;
  sfft::Params p_auto = paper_params(n_demo, k_hi, o.seed);
  p_auto.algo = sfft::Algorithm::kAuto;
  for (std::size_t i = 0; i < 8; ++i) {
    sfft::Params p = p_auto;
    p.k = (i % 2) == 0 ? k_hi : 4;
    demo_store.push_back(make_signal(n_demo, p.k, o.seed + 200 + i));
    demo.push_back({demo_store.back(), p});
  }
  cusim::DeviceGroup group(o.devices);
  gpu::MultiGpuPlan mplan(group, p_auto, opts);
  gpu::GpuFleetStats fs;
  mplan.execute_mixed(demo, &fs, gpu::BatchMode::kPipelined);
  std::size_t picks_ffast = 0;
  for (const auto& s : fs.per_signal)
    picks_ffast += s.algo == sfft::Algorithm::kFfast ? 1 : 0;
  std::printf("auto batch: %zu signals -> %zu ffast / %zu cusfft, "
              "makespan %.3f ms\n\n",
              fs.per_signal.size(), picks_ffast,
              fs.per_signal.size() - picks_ffast, fs.model_ms);

  // The 90% gate binds in measured mode, where the picker shares the
  // oracle's calibration table and a miss means picker plumbing broke.
  // CUSFFT_AUTOPICK=modeled prices both backends off the roofline model
  // (no launch-latency floors), so its agreement with the *measured*
  // oracle is reported but informational.
  const bool gated =
      gpu::autopick_mode_from_env() == gpu::AutopickMode::kMeasured;
  const bool ok =
      cells > 0 && (!gated || matched * 10 >= cells * 9);
  std::printf("picker vs oracle: %zu/%zu cells on the faster backend "
              "(auto %.3f ms vs oracle %.3f ms total) -> %s\n\n",
              matched, cells, auto_total_ms, oracle_total_ms,
              !gated ? "informational (modeled mode)"
                     : ok ? "PASS (>= 90%)"
                          : "FAIL (< 90%)");

  emit(o, "crossover", t);
  if (!o.json.empty())
    write_results_json(o.json, "crossover",
                       {{"crossover_auto", 0.0, auto_total_ms},
                        {"crossover_oracle", 0.0, oracle_total_ms}},
                       cusim::MetricsRegistry::global().expose_json());
  if (!o.metrics.empty()) write_metrics_artifacts(o.metrics);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOpts o = BenchOpts::parse(argc, argv);
  if (o.serve) return run_serve(o);
  if (o.algo == sfft::Algorithm::kAuto) return run_crossover(o);
  const std::size_t batch = env_or("CUSFFT_BATCH", 8);
  const std::size_t n = 1ULL << o.min_logn;
  const std::size_t k = std::min(o.k, n / 8);
  std::cout << "Throughput: optimized GPU backend, algo="
            << sfft::to_string(o.algo) << ", n=2^" << o.min_logn
            << " k=" << k << " batch=" << batch << " devices=" << o.devices
            << " nodes=" << o.nodes << "\n\n";

  std::vector<cvec> signals;
  std::vector<std::span<const cplx>> views;
  for (std::size_t i = 0; i < batch; ++i)
    signals.push_back(make_signal(n, k, o.seed + i));
  for (const cvec& s : signals) views.emplace_back(s);

  sfft::Params params = paper_params(n, k, o.seed);
  params.algo = o.algo;  // kCusfft or kFfast (kAuto took the branch above)
  const gpu::Options opts = gpu::Options::optimized();

  ResultTable t({"mode", "signals", "host_ms", "host_sps",
                 "model_ms_per_signal"});
  std::vector<JsonRow> json_rows;
  auto add = [&](const char* mode, double host_ms, double model_ms) {
    t.add_row({mode, std::to_string(batch), ResultTable::num(host_ms),
               ResultTable::num(host_ms > 0
                                    ? 1e3 * static_cast<double>(batch) /
                                          host_ms
                                    : 0),
               ResultTable::num(batch > 0
                                    ? model_ms / static_cast<double>(batch)
                                    : 0)});
    json_rows.push_back({mode, host_ms, model_ms});
  };

  {  // cold_plan: plan + execute per signal (pool/filter-cache warm-up run
     // first so the row measures the recycled steady state).
    cusim::Device dev;
    { gpu::GpuPlan warm(dev, params, opts); }
    WallTimer wall;
    double model_ms = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      gpu::GpuPlan plan(dev, params, opts);
      gpu::GpuExecStats st;
      plan.execute(views[i], &st);
      model_ms += st.model_ms;
    }
    add("cold_plan", wall.ms(), model_ms);
  }

  {  // execute: one plan, N captures.
    cusim::Device dev;
    gpu::GpuPlan plan(dev, params, opts);
    WallTimer wall;
    double model_ms = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      gpu::GpuExecStats st;
      plan.execute(views[i], &st);
      model_ms += st.model_ms;
    }
    add("execute", wall.ms(), model_ms);
  }

  // A/B the two batch schedules: same plan shape, fresh device each so the
  // modeled timelines are independent. Outputs must be bit-identical —
  // the pipeline only reorders the modeled timeline.
  std::vector<SparseSpectrum> out_serial, out_pipe;
  double serial_ms = 0, pipe_ms = 0;

  {  // many_serialized: one capture, signals one at a time.
    cusim::Device dev;
    gpu::GpuPlan plan(dev, params, opts);
    WallTimer wall;
    gpu::GpuBatchStats st;
    out_serial =
        plan.execute_many(views, &st, gpu::BatchMode::kSerialized);
    add("many_serialized", wall.ms(), st.model_ms);
    serial_ms = st.model_ms;
  }

  {  // many_pipelined: signal i+1's transfer+binning overlaps signal i's
     // selection/estimation across two home streams.
    cusim::Device dev;
    gpu::GpuPlan plan(dev, params, opts);
    WallTimer wall;
    gpu::GpuBatchStats st;
    out_pipe = plan.execute_many(views, &st, gpu::BatchMode::kPipelined);
    add("many_pipelined", wall.ms(), st.model_ms);
    pipe_ms = st.model_ms;
    // The overlapped capture is the interesting timeline (per-stream phase
    // tracks, warm pool): emit it as the bench's profile artifact. With a
    // fleet the merged multi-device trace below supersedes it.
    if (!o.profile.empty() && o.devices <= 1)
      write_profile_artifact(dev.end_capture(), o.profile);
  }

  std::vector<SparseSpectrum> out_shard;
  double shard_ms = 0;
  if (o.devices > 1) {
    // many_sharded: the batch split across the fleet, the pipeline live
    // inside each shard, per-device timelines merged on one clock with
    // PCIe root-complex contention.
    cusim::DeviceGroup group(o.devices);
    gpu::MultiGpuPlan mplan(group, params, opts);
    WallTimer wall;
    gpu::GpuFleetStats fs;
    out_shard = mplan.execute_many(views, &fs, gpu::BatchMode::kPipelined);
    add("many_sharded", wall.ms(), fs.model_ms);
    shard_ms = fs.model_ms;

    std::printf("fleet: %zu devices, makespan %.3f ms, imbalance %.3f, "
                "pcie stalls %.3f ms\n",
                fs.devices, fs.model_ms, fs.imbalance, fs.pcie_stall_ms);
    for (const auto& d : fs.per_device)
      std::printf("  dev%zu %-8s %3zu signals  finish %8.3f ms  "
                  "util %5.1f%%  stall %.3f ms\n",
                  &d - fs.per_device.data(), d.device.c_str(), d.signals,
                  d.model_ms, 100.0 * d.utilization, d.pcie_stall_ms);
    std::printf("sharded vs pipelined: %.3f ms vs %.3f ms modeled (%.2fx)\n",
                shard_ms, pipe_ms, shard_ms > 0 ? pipe_ms / shard_ms : 0.0);

    if (!o.profile.empty())
      write_profile_artifact(group.end_capture(), o.profile);
  }

  auto same = [](const std::vector<SparseSpectrum>& a,
                 const std::vector<SparseSpectrum>& b) {
    bool eq = a.size() == b.size();
    for (std::size_t i = 0; eq && i < a.size(); ++i) {
      eq = a[i].size() == b[i].size();
      for (std::size_t j = 0; eq && j < a[i].size(); ++j)
        eq = a[i][j].loc == b[i][j].loc && a[i][j].val == b[i][j].val;
    }
    return eq;
  };
  bool identical = same(out_serial, out_pipe) &&
                   (o.devices <= 1 || same(out_serial, out_shard));
  std::printf(
      "\npipelined vs serialized: %.3f ms vs %.3f ms modeled "
      "(%.2fx), spectra %s\n",
      pipe_ms, serial_ms, pipe_ms > 0 ? serial_ms / pipe_ms : 0.0,
      identical ? "bit-identical" : "MISMATCH");

  bool cluster_ok = true;
  if (o.nodes > 1) {
    // Cluster A/B: the same batch through ClusterPlan at 1 node vs
    // o.nodes nodes, o.devices devices per node. Spectra must stay
    // bit-identical to the single-device run (node sharding only
    // partitions the batch) and the multi-node makespan must beat the
    // single node by >= 1.5x — the scale-out gate CI pins.
    auto run_cluster = [&](std::size_t nodes, const char* name,
                           std::vector<SparseSpectrum>& out,
                           gpu::GpuFleetStats& fs) {
      cusim::Cluster cluster(nodes, o.devices);
      if (o.nic_gbps > 0)
        cluster.set_nic(cusim::NicModel::FromGbps(o.nic_gbps));
      gpu::ClusterPlan cplan(cluster, params, opts);
      WallTimer wall;
      out = cplan.execute_many(views, &fs, gpu::BatchMode::kPipelined);
      add(name, wall.ms(), fs.model_ms);
      // The node-grouped trace is the headline artifact once a real
      // cluster ran; single-node traces above are superseded.
      if (!o.profile.empty() && nodes > 1)
        write_profile_artifact(cluster.end_capture(), o.profile);
    };
    std::vector<SparseSpectrum> out_c1, out_cm;
    gpu::GpuFleetStats fs1, fsm;
    run_cluster(1, "cluster_1node", out_c1, fs1);
    const std::string mname = "cluster_" + std::to_string(o.nodes) + "node";
    run_cluster(o.nodes, mname.c_str(), out_cm, fsm);

    std::printf("\ncluster: %zu nodes x %zu devices, NIC %.1f Gbit/s\n",
                fsm.nodes, o.devices,
                8e-9 * (o.nic_gbps > 0 ? o.nic_gbps * 1e9 / 8
                                       : cusim::NicModel{}.bandwidth_Bps));
    for (std::size_t m = 0; m < fsm.per_node.size(); ++m) {
      const auto& nd = fsm.per_node[m];
      std::printf("  node%zu %3zu signals  finish %8.3f ms  util %5.1f%%  "
                  "nic %.0f B (stall %.3f ms, queue %.3f ms)\n",
                  m, nd.signals, nd.model_ms, 100.0 * nd.utilization,
                  nd.nic_bytes, nd.nic_stall_ms, nd.nic_queue_ms);
    }
    const double speedup = fsm.model_ms > 0 ? fs1.model_ms / fsm.model_ms : 0;
    const bool cluster_identical =
        same(out_serial, out_c1) && same(out_serial, out_cm);
    cluster_ok = cluster_identical && speedup >= 1.5;
    std::printf("cluster %zu-node vs 1-node: %.3f ms vs %.3f ms modeled "
                "(%.2fx, %zu NIC transfers, %.0f B), spectra %s\n",
                o.nodes, fsm.model_ms, fs1.model_ms, speedup,
                fsm.nic_transfers, fsm.nic_bytes,
                cluster_identical ? "bit-identical" : "MISMATCH");

    // Oversized-signal demo: shrink the modeled device memory below the
    // single-signal working set — the run is impossible at one node and
    // only the slab decomposition (comb/bin per slice, NIC gather to the
    // head node) completes it. The demo signal is grown until a slice
    // genuinely fits where the whole shape does not (at small n the
    // per-loop bins dominate both footprints).
    std::size_t n_slab = std::max<std::size_t>(n, 1ULL << 18);
    sfft::Params p_slab = paper_params(n_slab, std::min(o.k, n_slab / 8),
                                       o.seed);
    while (n_slab < (1ULL << 24) &&
           gpu::ClusterPlan::slab_node_working_set_bytes(p_slab, o.nodes) >=
               gpu::ClusterPlan::slab_working_set_bytes(p_slab)) {
      n_slab <<= 1;
      p_slab = paper_params(n_slab, std::min(o.k, n_slab / 8), o.seed);
    }
    const std::size_t ws = gpu::ClusterPlan::slab_working_set_bytes(p_slab);
    perfmodel::GpuSpec tiny = perfmodel::GpuSpec::k20x();
    tiny.global_mem_bytes = ws - 1;
    const cvec x_slab = make_signal(n_slab, p_slab.k, o.seed + 777);
    std::printf("\nslab demo: n=%zu, working set %zu B, modeled device "
                "memory %zu B\n", n_slab, ws, tiny.global_mem_bytes);
    bool slab_refused = false;
    try {
      cusim::Cluster one(1, o.devices, tiny);
      gpu::ClusterPlan cp1(one, p_slab, opts);
      cp1.execute_slab(x_slab);
    } catch (const std::runtime_error& e) {
      slab_refused = true;
      std::printf("  1 node: refused as expected (%s)\n", e.what());
    }
    cusim::Cluster wide(o.nodes, o.devices, tiny);
    if (o.nic_gbps > 0)
      wide.set_nic(cusim::NicModel::FromGbps(o.nic_gbps));
    gpu::ClusterPlan cpw(wide, p_slab, opts);
    gpu::GpuFleetStats slab_fs;
    const SparseSpectrum slab = cpw.execute_slab(x_slab, &slab_fs);
    const SparseSpectrum serial_ref = sfft::SerialPlan(p_slab).execute(x_slab);
    bool slab_locs = slab.size() == serial_ref.size();
    for (std::size_t i = 0; slab_locs && i < slab.size(); ++i)
      slab_locs = slab[i].loc == serial_ref[i].loc;
    std::printf("  %zu nodes: %.3f ms modeled, %zu NIC transfers "
                "(%.0f B, stall %.3f ms), %zu coefficients, locations %s "
                "serial reference\n",
                o.nodes, slab_fs.model_ms, slab_fs.nic_transfers,
                slab_fs.nic_bytes, slab_fs.nic_stall_ms, slab.size(),
                slab_locs ? "match" : "MISMATCH vs");
    cluster_ok = cluster_ok && slab_refused && slab_locs;
  }

  // Mid-run metrics snapshot: tools/metrics_check compares it against the
  // final snapshot to prove the counters are monotonic within one process
  // (counters reset at process start, so two separate runs can't check
  // this).
  if (!o.metrics.empty()) write_metrics_json(o.metrics + ".snap1.json");

  bool mixed_identical = true;
  if (o.mixed) {
    // Mixed-shape fleet sweep: a skewed batch (expensive shape on even
    // indices, cheap shape on odd) A/B'd across {unlimited, round-robin}
    // PCIe staging; cost-LPT splits the expensive signals by modeled
    // cost. Transfers are modeled so the staging policies have copies to
    // stage.
    gpu::Options mopts = opts;
    mopts.include_transfer = true;
    const std::size_t n_big = n, k_big = k;
    const std::size_t n_small = std::max<std::size_t>(1 << 10, n >> 2);
    const std::size_t k_small = std::max<std::size_t>(4, k / 4);
    sfft::Params p_big = paper_params(n_big, k_big, o.seed);
    sfft::Params p_small = paper_params(n_small, k_small, o.seed);
    p_big.algo = o.algo;
    p_small.algo = o.algo;
    std::cout << "\nMixed-shape sweep: " << batch << " signals, big n=2^"
              << o.min_logn << " k=" << k_big << " (even) / small n="
              << n_small << " k=" << k_small << " (odd), devices="
              << o.devices << "\n";

    std::vector<cvec> mix_store;
    std::vector<gpu::MixedSignal> mix;
    for (std::size_t i = 0; i < batch; ++i) {
      const bool big = (i % 2) == 0;
      mix_store.push_back(make_signal(big ? n_big : n_small,
                                      big ? k_big : k_small,
                                      o.seed + 100 + i));
    }
    for (std::size_t i = 0; i < batch; ++i)
      mix.push_back({mix_store[i], (i % 2) == 0 ? p_big : p_small});

    // Per-signal single-device reference: the fleet must reproduce these
    // spectra bit for bit whatever the assignment or staging policy.
    std::vector<SparseSpectrum> mix_expected;
    {
      cusim::Device dev;
      gpu::GpuPlan plan_big(dev, p_big, mopts);
      gpu::GpuPlan plan_small(dev, p_small, mopts);
      for (std::size_t i = 0; i < batch; ++i)
        mix_expected.push_back(
            ((i % 2) == 0 ? plan_big : plan_small).execute(mix[i].x));
    }

    struct Cfg {
      const char* name;
      cusim::PcieStaging st;
    };
    const Cfg cfgs[] = {
        {"mixed_lpt_unlimited", cusim::PcieStaging::Unlimited()},
        {"mixed_lpt_staged", cusim::PcieStaging::RoundRobin()},
    };
    double model_ms[2] = {};
    for (std::size_t c = 0; c < 2; ++c) {
      const Cfg& cfg = cfgs[c];
      cusim::DeviceGroup group(o.devices);
      group.set_staging(cfg.st);
      gpu::MultiGpuPlan mplan(group, p_big, mopts);
      WallTimer wall;
      gpu::GpuFleetStats fs;
      const auto got =
          mplan.execute_mixed(mix, &fs, gpu::BatchMode::kPipelined);
      add(cfg.name, wall.ms(), fs.model_ms);
      mixed_identical = mixed_identical && same(mix_expected, got);
      std::printf("  %-22s makespan %8.3f ms  imbalance %.3f  "
                  "stall %7.3f ms  queue %7.3f ms  [%s]\n",
                  cfg.name, fs.model_ms, fs.imbalance, fs.pcie_stall_ms,
                  fs.pcie_queue_ms, fs.staging.c_str());
      model_ms[c] = fs.model_ms;
      if (c == 1 && !o.profile.empty())
        write_profile_artifact(group.end_capture(), o.profile);
    }
    std::printf(
        "mixed fleet: staged %.3f ms vs unlimited %.3f ms (%.2fx), "
        "spectra %s\n",
        model_ms[1], model_ms[0],
        model_ms[1] > 0 ? model_ms[0] / model_ms[1] : 0.0,
        mixed_identical ? "bit-identical" : "MISMATCH");
  }

  const auto pool = cusim::BufferPool::global().stats();
  const auto fc = signal::flat_filter_cache_stats();
  std::cout << "\nbuffer pool: " << pool.allocations << " allocations, "
            << pool.reuses << " reuses, "
            << pool.bytes_allocated / (1024 * 1024) << " MiB allocated\n"
            << "filter cache: " << fc.hits << " hits, " << fc.misses
            << " misses\n\n";

  emit(o, "throughput", t);
  // The always-on registry has been recording the whole run; the --json
  // summary embeds the snapshot so bench_gate baselines and metrics come
  // from one artifact.
  if (!o.json.empty())
    write_results_json(o.json, "throughput", json_rows,
                       cusim::MetricsRegistry::global().expose_json());
  if (!o.metrics.empty()) write_metrics_artifacts(o.metrics);
  // Spectra equivalence (and the cluster scale-out gate when --nodes > 1)
  // is the bench's correctness gate (CI runs it).
  return identical && mixed_identical && cluster_ok ? 0 : 1;
}
