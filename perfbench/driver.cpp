// Benchmark driver: runs one workload through the public API, checks every
// output against a dense-FFT oracle outside the timed region, and writes the
// raw samples (per-op host times, per-signal modeled times and accuracy,
// serve passes, layer counters, spans) as one JSON document. metrics.py
// turns the samples into metrics; this file does no percentile arithmetic.
//
//   perfbench_driver --workload steady_2e18|cold_mixed_fleet|serve_cluster
//                    --seed N --seconds S --trace 0|1 --out FILE [--tiny]
//
// --trace 1 runs the timed phase with spans around every call the driver
// makes into a layer, plus probes that time single layers (plan
// construction, first and replayed execute, simulate, filter build,
// calibration), then pairs of ops on the same inputs, one untraced and one
// traced, whose host times give the tracing overhead.
// --tiny shrinks signal sizes, not sample counts, for the smoke tests.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/multi_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusfft/server.hpp"
#include "cusim/cluster.hpp"
#include "cusim/device_group.hpp"
#include "cusim/metrics.hpp"
#include "cusim/pool.hpp"
#include "cusim/profiler.hpp"
#include "fft/fft.hpp"
#include "signal/filter.hpp"
#include "signal/generate.hpp"

using namespace cusfft;

namespace {

constexpr std::size_t kBatch = 8;
constexpr std::size_t kSetupReps = 5;  // setup_s is their median
constexpr std::size_t kProbes = 3;     // single-layer probes per traced run
constexpr std::size_t kOverheadPairs = 4;  // untraced/traced op pairs
constexpr double kRecallBudget = 0.9;  // accuracy budget per signal
constexpr double kNoiseRel = 0.01;     // noise sigma / per-sample tone RMS

double now_ms() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder. While off every call is a no-op, so the
/// untraced run pays nothing. Spans nest by scope and carry the op id.
class Spans {
 public:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;
    long parent = -1;
    long op = -1;
  };
  class Scope {
   public:
    Scope(Spans* s, long idx) : s_(s), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (s_ != nullptr) s_->close(idx_);
    }

   private:
    Spans* s_;
    long idx_;
  };

  bool on = false;
  long op = -1;

  [[nodiscard]] Scope open(const char* name) {
    if (!on) return {nullptr, -1};
    Span sp;
    sp.name = name;
    sp.parent = stack_.empty() ? -1 : stack_.back();
    sp.op = op;
    sp.t0 = now_ms();
    spans_.push_back(std::move(sp));
    stack_.push_back(static_cast<long>(spans_.size()) - 1);
    return {this, stack_.back()};
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  void close(long idx) {
    spans_[static_cast<std::size_t>(idx)].t1 = now_ms();
    stack_.pop_back();
  }
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

// ---- JSON output ---------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }
const char* boolean(bool b) { return b ? "true" : "false"; }

/// Flat name -> value map, emitted as a JSON object.
using Fields = std::map<std::string, double>;

std::string object(const Fields& f) {
  std::string o = "{";
  for (const auto& [k, v] : f) {
    if (o.size() > 1) o += ",";
    o += quote(k) + ":" + num(v);
  }
  return o + "}";
}

// ---- inputs and the correctness gate -------------------------------------

struct Case {
  cvec x;
  SparseSpectrum truth;
  sfft::Params p;
  bool noisy = false;
};

/// The paper's parameter regime as the repository's figure benches run it.
sfft::Params paper_params(std::size_t n, std::size_t k, u64 plan_seed) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = plan_seed;
  p.bcst = 1.0;
  p.loops_loc = 4;
  p.loops_est = 8;
  p.filter.tolerance = 1e-6;
  return p;
}

/// Signals for (shape, noisy) specs: one seed per signal is drawn from
/// `rng` in order, then the signals are synthesized in parallel.
std::vector<Case> make_cases(
    const std::vector<std::pair<sfft::Params, bool>>& specs, Rng& rng) {
  std::vector<u64> seeds;
  for (std::size_t i = 0; i < specs.size(); ++i) seeds.push_back(rng.next_u64());
  std::vector<Case> cs(specs.size());
  ThreadPool::global().parallel_for(specs.size(), [&](std::size_t b,
                                                       std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const auto& [p, noisy] = specs[i];
      signal::SparseSignalParams sp;
      if (noisy)
        sp.noise_sigma = kNoiseRel * std::sqrt(static_cast<double>(p.k)) /
                         static_cast<double>(p.n);
      Rng r(seeds[i]);
      signal::SparseSignal s = signal::make_sparse_signal(p.n, p.k, r, sp);
      cs[i] = {std::move(s.x), std::move(s.truth), p, noisy};
    }
  });
  return cs;
}

/// One signal's verdict against the dense oracle (the FFT of the input).
struct Verdict {
  bool pass = false;
  bool empty = false;
  double recall = 0;
  double l1 = 0;
  std::size_t hits = 0;  // output locations in the planted support
};

class Oracle {
 public:
  /// Verdicts for got[i] against cs[i], checked in parallel between ops.
  std::vector<Verdict> check(const std::vector<SparseSpectrum>& got,
                             const std::vector<Case>& cs) {
    for (const Case& c : cs)
      if (plans_.find(c.p.n) == plans_.end())
        plans_.emplace(c.p.n, fft::Plan(c.p.n, fft::Direction::kForward));
    std::vector<Verdict> v(cs.size());
    ThreadPool::global().parallel_for(cs.size(), [&](std::size_t b,
                                                     std::size_t e) {
      for (std::size_t i = b; i < e; ++i) v[i] = one(got[i], cs[i]);
    });
    return v;
  }

 private:
  Verdict one(const SparseSpectrum& got, const Case& c) const {
    cvec dense(c.p.n);
    plans_.at(c.p.n).execute(c.x, dense);
    Verdict v;
    v.empty = got.empty();
    v.recall = location_recall(got, dense, c.p.k);
    v.l1 = l1_error_per_coeff(got, dense, c.p.k);
    std::set<u64> support;
    for (const SparseCoef& t : c.truth) support.insert(t.loc);
    for (const SparseCoef& g : got) v.hits += support.count(g.loc);
    v.pass = !v.empty && v.recall >= kRecallBudget;
    return v;
  }

  std::map<std::size_t, fft::Plan> plans_;
};

// ---- per-op records ------------------------------------------------------

struct SigRec {
  Verdict v;
  bool noisy = false;
  bool error = false;   // the call threw
  std::string algo;     // backend that ran it
  std::string slo;      // serve: latency | throughput
  std::string outcome;  // serve: completed | shed | rejected
  double dev_ms = 0;    // modeled signal span (end - start)
  double lat_ms = 0;    // modeled completion (serve: latency) from submission
  double job_ms = 0;    // modeled completion of the whole op
};

struct OpRec {
  std::string phase;  // setup | timed | overhead_untraced | overhead_traced
  double host_ms = 0;
  double model_ms = 0;
  Fields extra;
  std::vector<SigRec> sigs;
};

std::string sig_json(const SigRec& s) {
  std::ostringstream o;
  o << "{\"pass\":" << boolean(s.v.pass) << ",\"empty\":" << boolean(s.v.empty)
    << ",\"error\":" << boolean(s.error) << ",\"noisy\":" << boolean(s.noisy)
    << ",\"algo\":" << quote(s.algo) << ",\"slo\":" << quote(s.slo)
    << ",\"outcome\":" << quote(s.outcome) << ",\"recall\":" << num(s.v.recall)
    << ",\"l1\":" << num(s.v.l1) << ",\"hits\":" << s.v.hits
    << ",\"dev_ms\":" << num(s.dev_ms) << ",\"lat_ms\":" << num(s.lat_ms)
    << ",\"job_ms\":" << num(s.job_ms) << "}";
  return o.str();
}

std::string op_json(const OpRec& op) {
  std::string o = "{\"phase\":" + quote(op.phase) +
                  ",\"host_ms\":" + num(op.host_ms) +
                  ",\"model_ms\":" + num(op.model_ms) +
                  ",\"extra\":" + object(op.extra) + ",\"sigs\":[";
  for (std::size_t i = 0; i < op.sigs.size(); ++i)
    o += (i ? "," : "") + sig_json(op.sigs[i]);
  return o + "]}";
}

// ---- one run -------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string out;
};

/// Registry series the traced run reads as deltas around each op.
const char* const kCounters[] = {
    "cusfft_graph_records_total",     "cusfft_graph_replays_total",
    "cusfft_pool_hits_total",         "cusfft_pool_misses_total",
    "cusfft_candidates_total",        "cusfft_signals_total",
    "cusfft_cluster_nic_bytes_total",
};
const char* const kHistogramSums[] = {
    "cusfft_cluster_model_ms",
    "cusfft_cluster_nic_stall_ms",
    "cusfft_cluster_nic_queue_ms",
};

Fields read_registry() {
  const auto snap = cusim::MetricsRegistry::global().snapshot();
  Fields f;
  for (const char* name : kCounters) {
    const auto it = snap.counters.find(name);
    f[name] = it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  for (const char* name : kHistogramSums) {
    const auto it = snap.histograms.find(name);
    f[name] = it == snap.histograms.end() ? 0.0 : it->second.sum;
  }
  const auto fc = signal::flat_filter_cache_stats();
  f["filter_cache_hits"] = static_cast<double>(fc.hits);
  f["filter_cache_misses"] = static_cast<double>(fc.misses);
  return f;
}

class Run {
 public:
  explicit Run(Args a) : a_(std::move(a)), rng_(a_.seed * 0x9E3779B97F4A7C15ULL + 1) {}

  int main() {
    if (a_.workload == "steady_2e18")
      steady();
    else if (a_.workload == "cold_mixed_fleet")
      cold();
    else if (a_.workload == "serve_cluster")
      serve();
    else
      throw std::invalid_argument("unknown workload " + a_.workload);
    return write();
  }

 private:
  // -- shared plumbing --

  /// Runs `one` until the timed ops have spent `seconds` of host time and
  /// at least `min_ops` ran. Input generation and checks stay outside.
  template <class F>
  void loop(const char* phase, std::size_t min_ops, double seconds, F one) {
    double spent = 0;
    for (std::size_t i = 0; i < min_ops || spent < seconds * 1e3; ++i) {
      OpRec op = one(phase);
      spent += op.host_ms;
      ops_.push_back(std::move(op));
    }
  }

  /// Tracing overhead, after the timed phase of a traced run: pairs of
  /// ops, one untraced and one traced. `draw(i)` gives pair i's inputs for
  /// the untraced and the traced op (the same signals); `op(phase, in)` runs
  /// one. The order alternates between pairs, so drift over the run
  /// cancels. Only timed ops feed the layer counters.
  template <class Draw, class Op>
  void overhead(Draw draw, Op op) {
    if (!a_.trace) return;
    for (std::size_t i = 0; i < kOverheadPairs; ++i) {
      const auto in = draw(i);
      for (std::size_t j = 0; j < 2; ++j) {
        const bool traced = (i + j) % 2 == 1;
        spans_.on = traced;
        ops_.push_back(op(traced ? "overhead_traced" : "overhead_untraced",
                          traced ? in.second : in.first));
      }
    }
    spans_.on = true;
  }

  static bool timed(const char* phase) { return std::string(phase) == "timed"; }

  /// The op id the next span, and the next op record, belong to.
  long next_op() const { return static_cast<long>(ops_.size()); }

  /// Accumulates registry deltas over the timed ops of a traced run.
  /// Devices publish their graph counters at the next capture or when
  /// destroyed, so each op flushes its own before the window closes.
  struct Delta {
    Run* r;
    bool on;
    Fields before;
    Delta(Run* run, const char* phase)
        : r(run), on(run->tracing() && timed(phase)) {
      if (on) before = read_registry();
    }
    void done() {
      if (!on) return;
      for (const auto& [k, v] : read_registry())
        r->layers_["reg." + k] += v - before[k];
    }
  };
  bool tracing() const { return spans_.on; }

  void add_profile(const cusim::CaptureProfile& prof, std::size_t signals,
                   double tx_bytes) {
    double launches = 0, coal = 0, rnd = 0, useful = 0, flops = 0,
           atomics = 0, conflict = 0;
    for (const cusim::KernelProfile& k : prof.kernels) {
      launches += static_cast<double>(k.launches);
      coal += k.counters.coalesced_transactions;
      rnd += k.counters.random_transactions;
      useful += k.counters.bytes_useful;
      flops += k.counters.flops;
      atomics += k.counters.atomic_ops;
      conflict = std::max(conflict, k.counters.max_atomic_conflict);
    }
    layers_["kernel.signals"] += static_cast<double>(signals);
    layers_["kernel.launches"] += launches;
    layers_["kernel.coalesced_tx"] += coal;
    layers_["kernel.random_tx"] += rnd;
    layers_["kernel.bytes_useful"] += useful;
    layers_["kernel.tx_bytes"] += (coal + rnd) * tx_bytes;
    layers_["kernel.flops"] += flops;
    layers_["kernel.atomic_ops"] += atomics;
    layers_["kernel.max_atomic_conflict"] =
        std::max(layers_["kernel.max_atomic_conflict"], conflict);
  }

  void add_fleet(const gpu::GpuFleetStats& fs) {
    double util_min = 1.0;
    for (const gpu::GpuDeviceShardStats& d : fs.per_device)
      if (d.signals > 0) util_min = std::min(util_min, d.utilization);
    layers_["fleet.batches"] += 1;
    layers_["fleet.imbalance"] += fs.imbalance;
    layers_["fleet.pcie_stall_ms"] += fs.pcie_stall_ms;
    layers_["fleet.pcie_queue_ms"] += fs.pcie_queue_ms;
    layers_["fleet.util_min"] += util_min;
  }

  /// Single-layer probe: construction, first (traced) and replayed execute
  /// of a fresh plan on a fresh device; the replay's per-step model times.
  void probe_plan(const sfft::Params& p, const gpu::Options& opts,
                  std::span<const cplx> x) {
    cusim::Device dev;
    std::unique_ptr<gpu::GpuPlan> plan;
    {
      auto s = spans_.open("probe.plan_ctor");
      plan = std::make_unique<gpu::GpuPlan>(dev, p, opts);
    }
    {
      auto s = spans_.open("probe.first_execute");
      plan->execute(x);
    }
    gpu::GpuExecStats st;
    {
      auto s = spans_.open("probe.replay_execute");
      plan->execute(x, &st);
    }
    layers_["step.probes"] += 1;
    for (const auto& [step, ms] : st.step_model_ms)
      layers_["step." + step] += ms;
  }

  /// Times get_flat_filter on a cold cache for the shape (end of the run:
  /// clearing the cache mid-run would change the workload).
  void probe_filter(const sfft::Params& p) {
    spans_.op = -1;  // these spans belong to no op
    for (std::size_t i = 0; i < kProbes; ++i) {
      signal::flat_filter_cache_clear();
      auto s = spans_.open("probe.filter_build");
      signal::get_flat_filter(p.n, p.buckets(), p.filter);
    }
  }

  /// Drops what earlier set-up repetitions left warm in process caches.
  static void cold_process_caches() {
    signal::flat_filter_cache_clear();
    cusim::BufferPool::global().trim();
  }

  /// Fills sigs from outputs; a thrown call fails every signal of the op.
  void record(OpRec& op, const std::vector<Case>& cs,
              const std::vector<SparseSpectrum>& out,
              const std::vector<gpu::GpuSignalStats>& per_signal,
              double model_ms, bool error) {
    op.model_ms = model_ms;
    const std::vector<Verdict> verdicts =
        error ? std::vector<Verdict>{} : oracle_.check(out, cs);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      SigRec r;
      r.noisy = cs[i].noisy;
      r.error = error;
      if (!error) {
        r.v = verdicts[i];
        const gpu::GpuSignalStats& ps = per_signal[i];
        r.algo = sfft::to_string(ps.algo);
        r.dev_ms = ps.end_ms - ps.start_ms;
        r.lat_ms = ps.end_ms;
        r.job_ms = model_ms;
      }
      op.sigs.push_back(std::move(r));
    }
  }

  static std::vector<std::span<const cplx>> views(const std::vector<Case>& cs) {
    std::vector<std::span<const cplx>> v;
    for (const Case& c : cs) v.emplace_back(c.x);
    return v;
  }

  void note_error(const std::exception& e) {
    std::cerr << "perfbench_driver: " << a_.workload << ": " << e.what()
              << "\n";
  }

  // -- steady_2e18: one warm GpuPlan, pipelined batches of one shape --

  void steady() {
    const std::size_t n = a_.tiny ? 1u << 14 : 1u << 18;
    const std::size_t k = a_.tiny ? 64 : 1000;
    const sfft::Params p = paper_params(n, k, rng_.next_u64());
    const gpu::Options opts = gpu::Options::optimized();
    std::unique_ptr<cusim::Device> dev;
    std::unique_ptr<gpu::GpuPlan> plan;

    auto draw = [&]() {
      return make_cases(
          std::vector<std::pair<sfft::Params, bool>>(kBatch, {p, false}),
          rng_);
    };
    auto run = [&](const char* phase, const std::vector<Case>& cs) {
      const auto xs = views(cs);
      const bool setup = std::string(phase) == "setup";
      if (setup) {
        plan.reset();
        dev.reset();
        cold_process_caches();
      }
      spans_.op = next_op();
      OpRec op;
      op.phase = phase;
      gpu::GpuBatchStats st;
      std::vector<SparseSpectrum> out;
      bool error = false;
      Delta delta(this, phase);
      {
        auto root = spans_.open("op");
        const double t0 = now_ms();
        try {
          if (setup) {
            auto s = spans_.open("cusfft.plan.ctor");
            dev = std::make_unique<cusim::Device>();
            plan = std::make_unique<gpu::GpuPlan>(*dev, p, opts);
          }
          if (!plan) throw std::runtime_error("no plan: set-up failed");
          auto s = spans_.open("cusfft.plan.execute_many");
          out = plan->execute_many(xs, &st);
        } catch (const std::exception& e) {
          error = true;
          note_error(e);
        }
        op.host_ms = now_ms() - t0;
      }
      if (dev) dev->publish_metrics();
      delta.done();
      record(op, cs, out, st.per_signal, st.model_ms, error);
      if (tracing() && timed(phase) && !error) {
        add_profile(cusim::collect_profile(*dev), cs.size(),
                    static_cast<double>(dev->spec().mem_transaction_bytes));
        // Dropping the event marks (the items keep their dependencies)
        // makes the timeline simulate the captured batch again.
        dev->timeline().clear_events();
        {
          auto s = spans_.open("cusim.simulate");
          dev->timeline().simulate();
        }
        if (layers_["step.probes"] < kProbes) probe_plan(p, opts, cs[0].x);
      }
      return op;
    };
    auto one = [&](const char* phase) { return run(phase, draw()); };

    spans_.on = a_.trace;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      OpRec op = one("setup");
      setup_s_.push_back(op.host_ms / 1e3);
      ops_.push_back(std::move(op));
    }
    loop("timed", 10, a_.seconds, one);
    // The warm plan runs the same batch twice.
    overhead([&](std::size_t) {
      std::vector<Case> cs = draw();
      return std::make_pair(cs, cs);
    }, run);
    if (a_.trace) probe_filter(p);
  }

  // -- cold_mixed_fleet: a fresh 2-device fleet per mixed-shape batch --

  void cold() {
    std::vector<std::size_t> ns;
    for (std::size_t lg = a_.tiny ? 10 : 13; ns.size() < 4; ++lg)
      ns.push_back(std::size_t{1} << lg);
    const std::size_t ks[] = {8, 32, 128, 512};
    gpu::Options opts = gpu::Options::optimized();
    opts.include_transfer = true;
    const perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x();

    // Each pair of batches covers the 4 x 4 (n, k) grid once: every batch
    // holds two signals of each n, and which two k values of that n go in
    // the first batch of the pair is drawn at random. Noise sits on a
    // checkerboard of the grid, so each n and each k is noisy half the
    // time. Every signal has its own plan seed.
    std::vector<std::size_t> pending;  // second batch of the pair
    auto batch = [&]() {
      std::vector<std::size_t> cells;
      if (pending.empty()) {
        for (std::size_t i = 0; i < 4; ++i) {
          std::size_t kidx[] = {0, 1, 2, 3};
          for (std::size_t j = 3; j > 0; --j)
            std::swap(kidx[j], kidx[rng_.next_below(j + 1)]);
          for (std::size_t j = 0; j < 4; ++j)
            (j < 2 ? cells : pending).push_back(4 * i + kidx[j]);
        }
      } else {
        cells.swap(pending);
      }
      std::vector<std::pair<sfft::Params, bool>> specs;
      for (const std::size_t c : cells) {
        const std::size_t n = ns[c / 4];
        const std::size_t k = std::min(ks[c % 4], n / 8);
        sfft::Params p = paper_params(n, k, rng_.next_u64());
        p.algo = sfft::Algorithm::kAuto;
        specs.emplace_back(p, (c / 4 + c % 4) % 2 == 1);
      }
      return make_cases(specs, rng_);
    };

    auto run = [&](const char* phase, const std::vector<Case>& cs) {
      std::vector<gpu::MixedSignal> ms;
      for (const Case& c : cs) ms.push_back({c.x, c.p});
      // Overhead ops start as cold as set-up: the two ops of a pair share
      // their shapes, so the second would hit the first's filters.
      if (!timed(phase)) cold_process_caches();
      spans_.op = next_op();
      OpRec op;
      op.phase = phase;
      std::unique_ptr<cusim::DeviceGroup> group;
      std::unique_ptr<gpu::MultiGpuPlan> mplan;
      gpu::GpuFleetStats fs;
      std::vector<SparseSpectrum> out;
      bool error = false;
      Delta delta(this, phase);
      {
        auto root = spans_.open("op");
        const double t0 = now_ms();
        try {
          if (tracing()) {
            // The pick inside the batch then hits the calibration cache,
            // so calibration and execution separate.
            for (const Case& c : cs) {
              auto s = spans_.open("cusfft.autopick.calibrate");
              gpu::calibrate_cell(c.p, spec, opts);
            }
          }
          {
            auto s = spans_.open("cusfft.multi_plan.ctor");
            group = std::make_unique<cusim::DeviceGroup>(2);
            mplan = std::make_unique<gpu::MultiGpuPlan>(*group, cs[0].p, opts);
          }
          auto s = spans_.open("cusfft.multi_plan.execute_mixed");
          out = mplan->execute_mixed(ms, &fs);
        } catch (const std::exception& e) {
          error = true;
          note_error(e);
        }
        op.host_ms = now_ms() - t0;
      }
      record(op, cs, out, fs.per_signal, fs.model_ms, error);
      const bool traced = tracing() && timed(phase) && !error;
      if (traced) {
        add_fleet(fs);
        {
          auto s = spans_.open("cusim.simulate");
          group->simulate();
        }
        add_profile(cusim::collect_profile(*group), cs.size(),
                    static_cast<double>(spec.mem_transaction_bytes));
      }
      mplan.reset();
      group.reset();
      delta.done();
      if (traced && layers_["step.probes"] < kProbes) {
        sfft::Params p = cs[0].p;
        p.algo = gpu::resolve_algorithm(p, spec, opts);
        probe_plan(p, opts, cs[0].x);
      }
      return op;
    };
    auto one = [&](const char* phase) { return run(phase, batch()); };

    spans_.on = a_.trace;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      OpRec op = one("setup");
      setup_s_.push_back(op.host_ms / 1e3);
      ops_.push_back(std::move(op));
    }
    loop("timed", 21, a_.seconds, one);
    // Same signals and shapes; each op gets its own plan seeds, so neither
    // reuses a calibration cell, as in the timed phase.
    overhead([&](std::size_t) {
      const std::vector<Case> cs = batch();
      std::vector<Case> twin = cs;
      for (Case& c : twin) c.p.seed = rng_.next_u64();
      return std::make_pair(cs, twin);
    }, run);
    if (a_.trace) probe_filter(paper_params(ns.back(), ks[3], 1));
  }

  // -- serve_cluster: an open-loop multi-tenant trace on a 2-node server --

  struct Arrival {
    double at_ms = 0;
    const char* tenant = "";
    int shape = 0;  // 0: latency shape, 1: bulk shape
    serve::SloClass slo = serve::SloClass::kThroughput;
    double deadline_ms = std::numeric_limits<double>::infinity();
  };

  /// Base trace, 248 requests over about 200 modeled ms (~1.2 per ms):
  /// "alpha" sends 100 latency-class requests of the first shape 1-3 ms
  /// apart, "bravo" sends 100 throughput-class requests of the second shape
  /// in 25 groups of four, and "charlie" sends 12 bursts of four
  /// throughput-class requests of the second shape, two of each burst with
  /// a 4 ms deadline. Groups and bursts fall at random in equal slices of
  /// alpha's span.
  static std::vector<Arrival> base_trace(Rng& rng) {
    std::vector<Arrival> ev;
    double t = 0;
    for (int i = 0; i < 100; ++i) {
      t += 2.0 * (0.5 + rng.next_double());
      ev.push_back({t, "alpha", 0, serve::SloClass::kLatency});
    }
    const double span = t;
    for (int g = 0; g < 25; ++g) {
      const double at = span * (g + rng.next_double()) / 25.0;
      for (int j = 0; j < 4; ++j)
        ev.push_back({at + 0.01 * j, "bravo", 1, serve::SloClass::kThroughput});
    }
    for (int b = 0; b < 12; ++b) {
      const double at = span * (b + rng.next_double()) / 12.0;
      for (int j = 0; j < 4; ++j)
        ev.push_back({at, "charlie", 1, serve::SloClass::kThroughput,
                      j < 2 ? 4.0 : std::numeric_limits<double>::infinity()});
    }
    std::stable_sort(ev.begin(), ev.end(), [](const Arrival& x,
                                              const Arrival& y) {
      return x.at_ms < y.at_ms;
    });
    return ev;
  }

  void serve() {
    const std::size_t n = a_.tiny ? 1u << 12 : 1u << 14;
    // Both shapes keep the library's default plan seed: the plans are the
    // server's configuration, the requests are the workload.
    const u64 plan_seed = sfft::Params{}.seed;
    const sfft::Params shapes[] = {paper_params(n, 32, plan_seed),
                                   paper_params(n, 8, plan_seed)};
    serve::ServerConfig cfg;
    cfg.nodes = 2;
    cfg.devices = 1;
    // Each sweep (and each overhead pair of a traced run) replays its own
    // draw of the trace, so the modeled sample spans several arrival
    // patterns.
    auto trace_for = [&](u64 stream) {
      Rng rng(a_.seed * 0x9E3779B97F4A7C15ULL + 0x7ace * (stream + 1));
      return base_trace(rng);
    };
    const double ladder[] = {1.0, 1.5, 2.0, 3.0};
    std::unique_ptr<serve::Server> server;
    double sweep = 0;

    // One pass replays `ev` at `mult` times the base rate, starting idle.
    // A pass starts on an idle server at a fixed virtual time per slot, so
    // latencies (done - arrival) round alike in traced and untraced runs.
    // Its inputs depend on `stream` alone.
    auto pass = [&](const char* phase, const std::vector<Arrival>& ev,
                    double mult, u64 stream, std::size_t slot) {
      const double clock = 1e4 * static_cast<double>(slot);
      Rng rng(a_.seed * 0x9E3779B97F4A7C15ULL + 0x5e77e * (stream + 1));
      std::vector<std::pair<sfft::Params, bool>> specs;
      for (const Arrival& a : ev) specs.emplace_back(shapes[a.shape], false);
      const std::vector<Case> cs = make_cases(specs, rng);
      std::vector<serve::Request> reqs;
      for (std::size_t i = 0; i < ev.size(); ++i) {
        serve::Request r;
        r.tenant = ev[i].tenant;
        r.params = cs[i].p;
        r.x = cs[i].x;
        r.slo = ev[i].slo;
        r.deadline_ms = ev[i].deadline_ms;
        reqs.push_back(std::move(r));
      }
      spans_.op = next_op();
      OpRec op;
      op.phase = phase;
      op.extra["mult"] = mult;
      op.extra["sweep"] = sweep;
      const auto before = server->stats();
      // The pass's modeled batch makespans then sum from zero, in the same
      // order whatever ran before it.
      cusim::MetricsRegistry::global().reset();
      std::vector<u64> ids;
      Delta delta(this, phase);
      {
        auto root = spans_.open("op");
        const double t0 = now_ms();
        for (std::size_t i = 0; i < ev.size(); ++i) {
          auto s = spans_.open("cusfft.server.submit_at");
          ids.push_back(
              server->submit_at(clock + ev[i].at_ms / mult, std::move(reqs[i])));
        }
        {
          auto s = spans_.open("cusfft.server.drain");
          server->drain();
        }
        op.host_ms = now_ms() - t0;
      }
      delta.done();
      const auto after = server->stats();
      op.model_ms = read_registry()["cusfft_cluster_model_ms"];
      op.extra["rate_rps"] =
          1e3 * static_cast<double>(ev.size()) * mult / ev.back().at_ms;
      // The server's own counts, as deltas over the pass. Its fill is
      // executed / (batches * max_batch) over its lifetime.
      const double batches = static_cast<double>(after.batches - before.batches);
      op.extra["batches"] = batches;
      op.extra["batch_fill"] =
          batches > 0 ? (after.mean_batch_fill * static_cast<double>(after.batches) -
                         before.mean_batch_fill * static_cast<double>(before.batches)) /
                            batches
                      : 0.0;
      op.extra["shed"] = static_cast<double>(after.shed - before.shed);
      op.extra["rejected"] = static_cast<double>(after.rejected - before.rejected);
      // The registry was reset when the pass began, so its high-water
      // gauge is this pass's.
      const auto gauges = cusim::MetricsRegistry::global().snapshot().gauges;
      const auto depth = gauges.find("cusfft_serve_queue_depth_max");
      op.extra["queue_depth_max"] = depth == gauges.end() ? 0.0 : depth->second;
      std::vector<serve::Response> resps;
      std::vector<SparseSpectrum> out;
      for (const u64 id : ids) {
        resps.push_back(server->response(id));
        out.push_back(resps.back().spectrum);
      }
      const std::vector<Verdict> verdicts = oracle_.check(out, cs);
      for (std::size_t i = 0; i < ev.size(); ++i) {
        const serve::Response& resp = resps[i];
        SigRec r;
        r.slo = serve::slo_name(ev[i].slo);
        r.outcome = serve::outcome_name(resp.outcome);
        r.algo = sfft::to_string(cs[i].p.algo);
        if (resp.outcome == serve::Outcome::kCompleted) {
          r.v = verdicts[i];
          r.lat_ms = resp.latency_ms;
        }
        op.sigs.push_back(std::move(r));
      }
      if (tracing() && timed(phase)) {
        probe_cluster(shapes[0], cfg.opts, cs);
        if (layers_["step.probes"] < kProbes)
          probe_plan(shapes[0], cfg.opts, cs[0].x);
      }
      return op;
    };

    spans_.on = a_.trace;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      // Set-up: server construction plus the first batch of each shape,
      // which builds the plans and records their launch graphs.
      std::vector<Arrival> warm;
      for (int j = 0; j < 8; ++j)
        warm.push_back({0.01 * j, "warmup", j % 2, serve::SloClass::kThroughput});
      server.reset();
      cold_process_caches();
      const double t0 = now_ms();
      server = std::make_unique<serve::Server>(cfg);
      const double ctor_ms = now_ms() - t0;
      OpRec op = pass("setup", warm, 1.0, 1000 + r, 0);
      setup_s_.push_back((ctor_ms + op.host_ms) / 1e3);
      ops_.push_back(std::move(op));
    }
    // Whole sweeps only (pass_share depends on the rate mix): at least two,
    // then more while another fits in the remaining --seconds.
    double spent = 0, last = 0;
    while (sweep < 2 || spent + last <= a_.seconds * 1e3) {
      const std::vector<Arrival> trace =
          trace_for(static_cast<u64>(sweep));
      const double before = spent;
      for (std::size_t i = 0; i < std::size(ladder); ++i) {
        const std::size_t slot =
            2 + static_cast<std::size_t>(sweep) * std::size(ladder) + i;
        OpRec op = pass("timed", trace, ladder[i], slot, slot);
        spent += op.host_ms;
        ops_.push_back(std::move(op));
      }
      last = spent - before;
      sweep += 1;
    }
    // Both ops of a pair replay one draw of the trace at the base rate.
    std::size_t slot = 2 + static_cast<std::size_t>(sweep) * std::size(ladder);
    overhead([](std::size_t i) { return std::make_pair(2000 + i, 2000 + i); },
             [&](const char* phase, u64 stream) {
               return pass(phase, trace_for(stream), ladder[0], stream, slot++);
             });
    if (a_.trace) probe_filter(shapes[0]);
  }

  /// One server-shaped batch through a ClusterPlan on its own 2-node
  /// cluster: the fleet, NIC and kernel counters of a serve batch.
  void probe_cluster(const sfft::Params& p, const gpu::Options& opts,
                     const std::vector<Case>& cs) {
    cusim::Cluster cluster(2, 1);
    gpu::ClusterPlan cplan(cluster, p, opts);
    std::vector<gpu::MixedSignal> ms;
    for (std::size_t i = 0; i < kBatch && i < cs.size(); ++i)
      ms.push_back({cs[i].x, cs[i].p});
    gpu::GpuFleetStats fs;
    {
      auto s = spans_.open("probe.cluster_execute");
      cplan.execute_mixed(ms, &fs);
    }
    add_fleet(fs);
    {
      auto s = spans_.open("cusim.simulate");
      cluster.simulate();
    }
    add_profile(cusim::collect_profile(cluster), ms.size(),
                static_cast<double>(
                    perfmodel::GpuSpec::k20x().mem_transaction_bytes));
  }

  // -- output --

  static double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  }

  int write() {
    const auto arena = cusim::MetricsRegistry::global().snapshot().gauges;
    const auto it = arena.find("cusfft_arena_reserved_bytes");
    layers_["arena_reserved_bytes"] = it == arena.end() ? 0 : it->second;

    std::ostringstream o;
    o << "{\"workload\":" << quote(a_.workload) << ",\"seed\":" << a_.seed
      << ",\"trace\":" << boolean(a_.trace) << ",\"tiny\":" << boolean(a_.tiny)
      << ",\"peak_rss_mb\":" << num(peak_rss_mb())
      << ",\"setup_s\":[";
    for (std::size_t i = 0; i < setup_s_.size(); ++i)
      o << (i ? "," : "") << num(setup_s_[i]);
    o << "],\"layers\":" << object(layers_) << ",\"ops\":[";
    for (std::size_t i = 0; i < ops_.size(); ++i)
      o << (i ? ",\n" : "\n") << op_json(ops_[i]);
    o << "],\"spans\":[";
    const auto& sp = spans_.all();
    for (std::size_t i = 0; i < sp.size(); ++i)
      o << (i ? ",\n" : "\n") << "[" << quote(sp[i].name) << ","
        << num(sp[i].t0) << "," << num(sp[i].t1) << "," << sp[i].parent
        << "," << sp[i].op << "]";
    o << "]}\n";
    std::ofstream f(a_.out);
    f << o.str();
    if (!f) {
      std::cerr << "perfbench_driver: cannot write " << a_.out << "\n";
      return 1;
    }
    return 0;
  }

  Args a_;
  Rng rng_;
  Spans spans_;
  Oracle oracle_;
  std::vector<OpRec> ops_;
  std::vector<double> setup_s_;
  Fields layers_;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (key == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (key == "--out") {
      a.out = v;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.out.empty() || !have_seed || !have_seconds ||
      !(a.seconds >= 0))
    throw std::invalid_argument(
        "usage: perfbench_driver --workload W --seed N --seconds S "
        "--trace 0|1 --out FILE [--tiny]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Run run(parse(argc, argv));
    return run.main();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
