// The simulated GPU. Kernels launch with a grid/block shape and execute
// functionally (every thread really runs, on real data) while sampled warps
// feed the transaction-level performance model. Results: bit-exact outputs
// plus modeled durations on the configured GpuSpec (default: the paper's
// Tesla K20x, Table I).
//
// Host execution model: thread blocks are independent in CUDA semantics, so
// the functional sweep fans blocks out over the process-wide ThreadPool
// (contiguous block ranges per worker). Each worker traces into its own
// KernelAccum; after the grid drains they are merged in warp-index order,
// which reproduces the sequential fold bit for bit — modeled counters and
// durations are identical whichever path ran. CUSIM_SEQUENTIAL=1 (or
// set_parallel(false), or LaunchCfg::sequential for kernels whose functional
// simulation depends on cross-block execution order) forces the sequential
// sweep.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "cusim/buffer.hpp"
#include "cusim/thread_ctx.hpp"
#include "cusim/timeline.hpp"
#include "perfmodel/gpu_model.hpp"

namespace cusfft::cusim {

struct CaptureProfile;  // profiler.hpp

/// A named phase boundary inside a capture (cudaEvent + label). A
/// device-wide annotation's phase spans from its event time to the next
/// device-wide annotation's (or the makespan). A stream-scoped annotation
/// (pipelined batches) spans to the next annotation on the same stream, or
/// to its explicit end event when one was set via Device::close_phase.
struct PhaseAnnotation {
  std::string name;
  std::size_t event_id = 0;
  StreamId stream = 0;
  bool scoped = false;
  std::ptrdiff_t end_event = -1;  // explicit close; -1 = next in scope
};

/// Kernel launch shape, CUDA-style <<<blocks, threads, stream>>>.
struct LaunchCfg {
  const char* name = "kernel";
  std::size_t blocks = 1;
  std::size_t threads_per_block = 256;
  StreamId stream = 0;
  /// Kernels whose *functional simulation* relies on blocks executing in
  /// order (closure-state shared histograms, floating-point atomics whose
  /// rounding must stay deterministic) set this to opt out of the
  /// block-parallel host path. Modeled time is unaffected either way.
  bool sequential = false;

  /// Opt-in captured-graph replay. The first launch of a given
  /// (graph domain, name, graph_key, blocks, threads_per_block) tuple runs
  /// fully traced and its extrapolated memory counters are recorded; later
  /// identical launches skip warp tracing entirely — the functional sweep
  /// still runs on real data (outputs stay bit-exact) and the timeline item
  /// is rebuilt from the record. Only mark kernels whose *access pattern*
  /// is fully determined by shape + graph_key: pool buffers sit on
  /// 256B-aligned simulated addresses with guard gaps, so a rebind to a
  /// different buffer shifts every address by a multiple of the 128B
  /// transaction size and cannot change segment counts. Kernels whose
  /// addresses depend on data values must stay off this path.
  bool cacheable = false;
  /// Disambiguates same-name, same-shape launches whose access pattern
  /// differs through closure parameters (round index, chunk, stage width).
  u64 graph_key = 0;

  /// Fluent opt-in: `for_elements(...).cache(key)` marks the launch
  /// cacheable under `key`.
  LaunchCfg& cache(u64 key) {
    cacheable = true;
    graph_key = key;
    return *this;
  }

  /// Convenience: shape for one thread per element.
  static LaunchCfg for_elements(const char* name, std::size_t count,
                                std::size_t block = 256, StreamId s = 0) {
    LaunchCfg c;
    c.name = name;
    c.threads_per_block = block;
    c.blocks = (count + block - 1) / std::max<std::size_t>(1, block);
    c.stream = s;
    return c;
  }
};

/// Aggregated per-kernel-name statistics for a capture region.
struct KernelReport {
  std::size_t launches = 0;
  perfmodel::KernelCounters counters;  // summed
  double solo_s = 0;                   // summed isolated durations
};

/// Captured-graph replay mode (CUSFFT_GRAPH environment variable):
/// "0" disables the cache (every launch traces), "verify" traces every
/// launch anyway and cross-checks cache hits against the fresh counters
/// (throws on any mismatch — the CI belt-and-braces mode), anything else
/// (or unset) enables replay.
enum class GraphMode { kOff, kOn, kVerify };

/// One recorded launch: the trace-derived counters that replay restores
/// without re-tracing. Shape-derived counters (blocks/threads/warps) and
/// flops (recomputed by the functional sweep) are not stored.
struct LaunchRecord {
  WarpTotals totals;
  double max_atomic_conflict = 0;
};

/// The captured launch graph of one Device: records keyed by
/// (domain salt, kernel name, graph_key, blocks, threads_per_block), plus
/// hit/record counters for tests and diagnostics.
struct LaunchGraph {
  /// `const void*` is the kernel-name literal's address — stable for the
  /// process lifetime; literal duplication across TUs can only cause a
  /// redundant record, never a wrong hit (the bytes match the pointer).
  using Key = std::tuple<u64, const void*, u64, u64, u64>;

  struct Stats {
    u64 records = 0;   // first-sight captures
    u64 replays = 0;   // launches served from a record (tracing skipped)
    u64 verified = 0;  // verify-mode cross-checks that passed
  };

  std::map<Key, LaunchRecord> records;
  Stats stats;
};

class Device {
 public:
  explicit Device(perfmodel::GpuSpec spec = perfmodel::GpuSpec::k20x());

  /// Publishes the final graph-stats delta and arena high-water marks to
  /// MetricsRegistry::global() (see publish_metrics).
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const perfmodel::GpuModel& model() const { return model_; }
  const perfmodel::GpuSpec& spec() const { return model_.spec(); }

  StreamId create_stream() { return next_stream_++; }

  /// Warp-sampling knob: at most this many warps are traced per launch
  /// (evenly strided); counters extrapolate by the stride. Tests that need
  /// exact counts can raise it. Changing the stride changes extrapolated
  /// counters, so the captured launch graph is dropped.
  void set_max_traced_warps(u64 v) {
    max_traced_warps_ = std::max<u64>(1, v);
    graph_.records.clear();
  }

  /// Namespaces the captured launch graph: records taken under one salt are
  /// invisible under another. Plans hash their parameters/permutations into
  /// the salt, so a plan with different params never replays another plan's
  /// records even when kernel names and shapes coincide.
  void set_graph_domain(u64 salt) { graph_salt_ = salt; }

  /// Replay mode override for tests (the constructor reads CUSFFT_GRAPH).
  void set_graph_mode(GraphMode m) { graph_mode_ = m; }
  GraphMode graph_mode() const { return graph_mode_; }

  /// Drops every captured record (explicit invalidation — use when modeled
  /// behavior outside the key changes).
  void clear_graph_cache() { graph_.records.clear(); }
  const LaunchGraph::Stats& graph_stats() const { return graph_.stats; }

  /// Host-parallel functional execution toggle (default: on unless the
  /// CUSIM_SEQUENTIAL environment variable is set). Both paths produce
  /// bit-identical buffers, counters, and modeled times.
  void set_parallel(bool on) { parallel_ = on; }
  bool parallel() const { return parallel_; }

  /// Grids smaller than this many threads stay on the sequential sweep
  /// (pool dispatch would cost more than it saves).
  void set_min_parallel_threads(std::size_t v) { min_parallel_threads_ = v; }

  /// Pins block-parallel launches to a private ThreadPool instead of
  /// ThreadPool::global(). Required whenever several Devices execute from
  /// different host threads (DeviceGroup): the global pool's task slots are
  /// single-submitter. nullptr (with the flag set) forces the sequential
  /// sweep. The caller keeps ownership; results are bit-identical either way.
  void set_pool(ThreadPool* pool) {
    pool_ = pool;
    own_pool_only_ = true;
  }

  /// Launches `body(ThreadCtx&)` for every thread in the grid. Functional
  /// execution is immediate — sequential or block-parallel on the host
  /// ThreadPool (see the header comment); the modeled duration is queued on
  /// the timeline under cfg.stream either way. Launches marked
  /// LaunchCfg::cacheable may skip warp tracing by replaying a captured
  /// record (the functional sweep always runs; outputs are bit-exact on
  /// every path).
  template <typename F>
  void launch(const LaunchCfg& cfg, F&& body) {
    if (cfg.cacheable && graph_mode_ != GraphMode::kOff) {
      const LaunchGraph::Key key{graph_salt_,
                                 static_cast<const void*>(cfg.name),
                                 cfg.graph_key, cfg.blocks,
                                 cfg.threads_per_block};
      const auto it = graph_.records.find(key);
      if (it != graph_.records.end() && graph_mode_ == GraphMode::kOn) {
        const double flops = replay_sweep(cfg, body);
        finish_replay(cfg, flops, it->second);
        ++graph_.stats.replays;
        return;
      }
      const double flops = traced_sweep(cfg, body);
      if (it != graph_.records.end()) {  // kVerify hit: cross-check
        verify_replay_record(cfg, it->second);
        ++graph_.stats.verified;
      } else {
        graph_.records.emplace(key, record_from_accum());
        ++graph_.stats.records;
      }
      finish_launch(cfg, flops);
      return;
    }
    finish_launch(cfg, traced_sweep(cfg, body));
  }

  /// Host-to-device copy: functional copy plus a PCIe timeline entry.
  template <typename T>
  void upload(DeviceBuffer<T>& dst, std::span<const T> src, StreamId s = 0) {
    if (src.size() != dst.size())
      throw std::invalid_argument("cusim upload: size mismatch");
    std::copy(src.begin(), src.end(), dst.host().begin());
    submit_copy("h2d", src.size() * sizeof(T), s);
  }

  /// Device-to-host copy.
  template <typename T>
  void download(std::span<T> dst, const DeviceBuffer<T>& src, StreamId s = 0) {
    if (src.size() != dst.size())
      throw std::invalid_argument("cusim download: size mismatch");
    std::copy(src.host().begin(), src.host().end(), dst.begin());
    submit_copy("d2h", dst.size() * sizeof(T), s);
  }

  /// Models a PCIe transfer of `bytes` without moving data — for partial
  /// copies out of a larger buffer (e.g. downloading only the num_hits
  /// prefix of a capacity-sized result buffer). The caller moves the bytes
  /// itself via host().
  void note_transfer(const char* name, double bytes, StreamId s = 0) {
    submit_copy(name, bytes, s);
  }

  /// Device-wide synchronization point in the modeled timeline
  /// (cudaDeviceSynchronize): later submissions wait for everything so far.
  /// Functional execution is eager, so this affects only modeled time.
  void sync_point() { timeline_.barrier(); }

  /// cudaEvent-style marker in the modeled timeline. Query with
  /// event_time_ms() after elapsed_model_ms().
  std::size_t record_event() { return timeline_.record_event(); }

  /// Stream-scoped event (cudaEventRecord on a stream): completes when
  /// every item submitted to `s` so far has finished. Same id space as
  /// record_event().
  std::size_t record_event(StreamId s) { return timeline_.record_event(s); }

  /// cudaStreamWaitEvent: later submissions on `s` wait for `event_id` —
  /// the cross-stream dependency edge the pipelined batch path is built on.
  void wait_event(StreamId s, std::size_t event_id) {
    timeline_.wait_event(s, event_id);
  }

  double event_time_ms(std::size_t event_id) {
    timeline_.simulate();
    return timeline_.event_time_s(event_id) * 1e3;
  }

  /// Named phase boundary: records a timeline event and remembers the label
  /// so captures export per-phase spans (profiler.hpp). Returns the event
  /// id (usable with event_time_ms like a plain record_event()).
  std::size_t annotate_phase(std::string name) {
    const std::size_t ev = timeline_.record_event();
    PhaseAnnotation a;
    a.name = std::move(name);
    a.event_id = ev;
    phases_.push_back(std::move(a));
    return ev;
  }

  /// Stream-scoped phase boundary: the phase tracks one stream's work, so
  /// overlapping signals of a pipelined batch keep separate, coherent
  /// phase spans (one phase track per home stream in the trace).
  std::size_t annotate_phase(std::string name, StreamId s) {
    const std::size_t ev = timeline_.record_event(s);
    PhaseAnnotation a;
    a.name = std::move(name);
    a.event_id = ev;
    a.stream = s;
    a.scoped = true;
    phases_.push_back(std::move(a));
    return ev;
  }

  /// Closes the most recent scoped phase on `s` at `end_event` instead of
  /// at the next same-stream annotation — used after a signal's last item
  /// so its final phase does not absorb the idle gap before the stream's
  /// next signal.
  void close_phase(StreamId s, std::size_t end_event) {
    for (auto it = phases_.rbegin(); it != phases_.rend(); ++it)
      if (it->scoped && it->stream == s) {
        it->end_event = static_cast<std::ptrdiff_t>(end_event);
        return;
      }
  }
  const std::vector<PhaseAnnotation>& phase_annotations() const {
    return phases_;
  }

  /// Starts a fresh measured region: clears the timeline, the report, and
  /// the phase annotations, and snapshots the global BufferPool stats so
  /// the capture can report allocation deltas.
  void begin_capture();

  /// Simulates everything submitted since begin_capture() and assembles the
  /// full observability record: per-item trace spans, per-phase spans,
  /// per-kernel counters with derived metrics, and the BufferPool delta.
  /// Does not clear anything — call begin_capture() for the next region.
  CaptureProfile end_capture();

  /// Pushes this device's graph-replay counter deltas and arena high-water
  /// gauges into MetricsRegistry::global(). Devices are transient (stack
  /// objects inside a plan), so instead of a pull collector that would
  /// dangle, every device pushes deltas at capture boundaries and on
  /// destruction; calling it twice is harmless (deltas since last push).
  void publish_metrics();

  /// Simulates everything submitted since begin_capture(); returns the
  /// modeled makespan in milliseconds. Idempotent until the next submit.
  double elapsed_model_ms();

  /// Per-kernel-name aggregation for the capture region.
  const std::map<std::string, KernelReport>& report() const {
    return report_;
  }
  const Timeline& timeline() const { return timeline_; }
  /// Mutable timeline access, for tests that inject raw items (e.g.
  /// dangling deps or cycles) the public API can't produce.
  Timeline& timeline() { return timeline_; }

  /// BufferPool::global() stats as of the last begin_capture() (or device
  /// construction) — the baseline for per-capture allocation deltas.
  const BufferPool::Stats& pool_stats_at_capture() const {
    return pool_at_capture_;
  }

 private:
  /// Picks the pool for this launch, or nullptr for the sequential sweep.
  ThreadPool* launch_pool(const LaunchCfg& cfg) const;

  /// Full functional sweep with warp tracing into accum_. Returns the
  /// grid's self-reported flops. One worker sweeps a contiguous block
  /// range, tracing into its own accumulator; threads of a block run
  /// consecutively on one worker, preserving the intra-block ordering
  /// kernels may rely on.
  template <typename F>
  double traced_sweep(const LaunchCfg& cfg, F&& body) {
    const std::size_t warp = spec().warp_size;
    const std::size_t warps_per_block =
        (cfg.threads_per_block + warp - 1) / warp;
    const u64 total_warps = static_cast<u64>(cfg.blocks) * warps_per_block;
    const u64 stride = std::max<u64>(1, total_warps / max_traced_warps_);
    accum_.reset(spec().mem_transaction_bytes, stride);

    auto run_blocks = [&](KernelAccum& acc, ThreadCtx& ctx, std::size_t b0,
                          std::size_t b1) {
      ctx.block_dim = static_cast<u32>(cfg.threads_per_block);
      ctx.grid_dim = cfg.blocks;
      for (std::size_t b = b0; b < b1; ++b) {
        ctx.block_idx = static_cast<u32>(b);
        u64 warp_index = static_cast<u64>(b) * warps_per_block;
        for (std::size_t w0 = 0; w0 < cfg.threads_per_block;
             w0 += warp, ++warp_index) {
          const bool traced = (warp_index % stride) == 0;
          if (traced) acc.tracer().clear();
          ctx.attach_trace(traced ? &acc.tracer() : nullptr);
          const std::size_t hi = std::min(cfg.threads_per_block, w0 + warp);
          for (std::size_t tiid = w0; tiid < hi; ++tiid) {
            ctx.begin_thread(static_cast<u32>(tiid));
            body(ctx);
          }
          if (traced) acc.fold_warp(warp_index);
        }
      }
    };

    ThreadPool* pool = launch_pool(cfg);
    if (pool == nullptr) {
      ThreadCtx ctx;
      run_blocks(accum_, ctx, 0, cfg.blocks);
      return ctx.flops();
    }
    const std::size_t slots = pool->size();
    if (worker_accums_.size() < slots) worker_accums_.resize(slots);
    if (worker_ctxs_.size() < slots) worker_ctxs_.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      worker_accums_[s].reset(spec().mem_transaction_bytes, stride);
      worker_ctxs_[s].reset_flops();
    }
    pool->parallel_for_indexed(
        cfg.blocks, [&](std::size_t slot, std::size_t b0, std::size_t b1) {
          run_blocks(worker_accums_[slot], worker_ctxs_[slot], b0, b1);
        });
    double flops = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      accum_.absorb(worker_accums_[s]);
      flops += worker_ctxs_[s].flops();  // integer-valued: order-independent
    }
    return flops;
  }

  /// Lean functional sweep for graph replay: no tracer is attached, so the
  /// per-access hooks reduce to a slot increment. Same parallel/sequential
  /// decision as the traced sweep (launch_pool), so functional outputs —
  /// including any ordering-sensitive accumulations — are bit-identical to
  /// a traced run. Returns the grid's self-reported flops.
  template <typename F>
  double replay_sweep(const LaunchCfg& cfg, F&& body) {
    const std::size_t warp = spec().warp_size;
    auto run_blocks = [&](ThreadCtx& ctx, std::size_t b0, std::size_t b1) {
      ctx.block_dim = static_cast<u32>(cfg.threads_per_block);
      ctx.grid_dim = cfg.blocks;
      ctx.attach_trace(nullptr);
      for (std::size_t b = b0; b < b1; ++b) {
        ctx.block_idx = static_cast<u32>(b);
        for (std::size_t w0 = 0; w0 < cfg.threads_per_block; w0 += warp) {
          const std::size_t hi = std::min(cfg.threads_per_block, w0 + warp);
          for (std::size_t tiid = w0; tiid < hi; ++tiid) {
            ctx.begin_thread(static_cast<u32>(tiid));
            body(ctx);
          }
        }
      }
    };

    ThreadPool* pool = launch_pool(cfg);
    if (pool == nullptr) {
      ThreadCtx ctx;
      run_blocks(ctx, 0, cfg.blocks);
      return ctx.flops();
    }
    const std::size_t slots = pool->size();
    if (worker_ctxs_.size() < slots) worker_ctxs_.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) worker_ctxs_[s].reset_flops();
    pool->parallel_for_indexed(
        cfg.blocks, [&](std::size_t slot, std::size_t b0, std::size_t b1) {
          run_blocks(worker_ctxs_[slot], b0, b1);
        });
    double flops = 0;
    for (std::size_t s = 0; s < slots; ++s) flops += worker_ctxs_[s].flops();
    return flops;
  }

  void finish_launch(const LaunchCfg& cfg, double flops);
  /// finish_launch for a replayed launch: counters come from the record
  /// instead of accum_ (flops are live from the functional sweep).
  void finish_replay(const LaunchCfg& cfg, double flops,
                     const LaunchRecord& rec);
  /// Exact comparison of accum_'s fresh counters against a record; throws
  /// std::runtime_error naming the kernel on any mismatch (kVerify mode).
  void verify_replay_record(const LaunchCfg& cfg, const LaunchRecord& rec);
  LaunchRecord record_from_accum();
  /// Shared tail of every launch: costs the counters, queues the timeline
  /// item, folds the per-kernel report.
  void submit_kernel_item(const LaunchCfg& cfg, double flops,
                          const WarpTotals& t, double max_conflict);
  void submit_copy(const char* name, double bytes, StreamId s);

  perfmodel::GpuModel model_;
  Timeline timeline_;
  KernelAccum accum_;
  std::vector<KernelAccum> worker_accums_;  // reused across launches
  std::vector<ThreadCtx> worker_ctxs_;      // reused across launches
  LaunchGraph graph_;
  LaunchGraph::Stats graph_pushed_;  // already published to the registry
  u64 graph_salt_ = 0;
  GraphMode graph_mode_ = GraphMode::kOn;
  std::map<std::string, KernelReport> report_;
  std::vector<PhaseAnnotation> phases_;
  BufferPool::Stats pool_at_capture_;
  StreamId next_stream_ = 1;
  u64 max_traced_warps_ = 4096;
  bool parallel_ = true;
  std::size_t min_parallel_threads_ = 1024;
  ThreadPool* pool_ = nullptr;   // set_pool override (not owned)
  bool own_pool_only_ = false;   // true once set_pool was called
};

}  // namespace cusfft::cusim
