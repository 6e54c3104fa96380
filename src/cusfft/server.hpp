// Multi-tenant serving tier above the cluster: cusfft::serve::Server turns
// the pre-formed-batch ClusterPlan API into a service. Tenants submit
// individual requests (per-request sfft::Params, a latency- or
// throughput-class SLO, an optional deadline); a dynamic batcher coalesces
// whatever is in flight into ClusterPlan::execute_mixed calls —
// inference-server-style continuous batching with a shape-keyed plan cache
// shared across tenants (each node's MultiGpuPlan per-device cache). One
// node (the default) is a plain device fleet: ClusterPlan hands the whole
// batch to that node's MultiGpuPlan.
//
// Admission control is per tenant and bounded: a tenant with
// tenant_queue_depth requests already pending has its next submission
// rejected immediately (Outcome::kRejected) instead of blocking forever —
// backpressure is a typed terminal outcome, not a hang. Requests whose
// deadline expires before their batch launches are shed at batch-formation
// time (Outcome::kShed); device time is never spent on expired work. Every
// submitted request therefore terminates in exactly one of {completed,
// shed, rejected}.
//
// Batch-close policy, all on the server's virtual clock (milliseconds):
//   - size:  the batch launches as soon as max_batch requests are pending
//            (and the device is free);
//   - wait:  the batch launches when the oldest pending request has waited
//            its SLO class's max-wait — max_wait_latency_ms for
//            SloClass::kLatency, max_wait_throughput_ms for kThroughput.
//            A latency-class request therefore *preempts* the longer
//            throughput accumulation window: its shorter max-wait caps the
//            close time of the whole batch;
//   - drain: drain()/stop() flush the remaining queue immediately.
//
// Two drive modes share one core (and one code path for admission,
// batching, shedding, and stats):
//   - Virtual (deterministic): the caller owns the clock. submit_at(t, r)
//     admits a request at virtual time t (arrivals must be submitted in
//     nondecreasing t), advance(t) launches every batch that closes up to
//     t, drain() flushes. Single-threaded by construction — batch
//     composition, shed decisions, and modeled latencies are a pure
//     function of (trace, config, modeled device), bit-reproducible
//     across runs and host thread counts. schedule_trace() /
//     decision_trace() expose the decisions for golden assertions.
//   - Threaded: start() spawns the batcher thread; submit() is
//     thread-safe and returns a request id; wait(id) blocks for the
//     terminal Response; cancel(id) resolves a still-pending request as
//     shed; stop() drains and joins. Virtual time still prices latencies
//     (arrivals stamp the current virtual clock; the clock advances by
//     modeled batch makespans), while max-wait pacing uses the wall
//     clock.
//
// The server publishes continuous metrics into
// cusim::MetricsRegistry::global() as events happen (cusfft_serve_*
// counters and histograms; see docs/PROFILING.md); GpuServeStats adds the
// snapshot-style gauges via to_metrics.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cusfft/multi_plan.hpp"
#include "sfft/params.hpp"

namespace cusfft::serve {

/// Service-level objective class of one request. Latency-class requests
/// shorten the batch-close window (see file comment); the two classes are
/// reported separately everywhere (stats, metrics, bench).
enum class SloClass { kLatency, kThroughput };
const char* slo_name(SloClass c);  // "latency" / "throughput"

/// Terminal state of a request. Every submitted request reaches exactly
/// one of kCompleted / kShed / kRejected; kPending is only ever observed
/// through outcome() before the request's batch has launched.
enum class Outcome { kPending, kCompleted, kShed, kRejected };
const char* outcome_name(Outcome o);

/// One tenant submission. x.size() must equal params.n (else submit
/// throws std::invalid_argument — a malformed request is a programming
/// error, not backpressure). deadline_ms is relative to arrival;
/// +infinity (the default) means none.
struct Request {
  std::string tenant;
  sfft::Params params;
  cvec x;
  SloClass slo = SloClass::kThroughput;
  double deadline_ms = std::numeric_limits<double>::infinity();
};

/// Server knobs. All virtual-clock quantities are milliseconds.
struct ServerConfig {
  std::size_t devices = 1;      ///< simulated devices per node
  std::size_t nodes = 1;        ///< simulated cluster size
  std::size_t max_batch = 8;    ///< size batch-close trigger
  double max_wait_latency_ms = 1.0;     ///< kLatency close window
  double max_wait_throughput_ms = 8.0;  ///< kThroughput close window
  std::size_t tenant_queue_depth = 16;  ///< per-tenant admission bound
  gpu::Options opts = []() {
    gpu::Options o = gpu::Options::optimized();
    o.include_transfer = true;  // serving pays the H2D copy
    return o;
  }();

  /// Applies the CUSFFT_SERVE_* environment knobs on top of `base`:
  /// CUSFFT_SERVE_DEVICES, CUSFFT_SERVE_NODES, CUSFFT_SERVE_MAX_BATCH,
  /// CUSFFT_SERVE_MAX_WAIT_MS (throughput class),
  /// CUSFFT_SERVE_MAX_WAIT_LAT_MS (latency class),
  /// CUSFFT_SERVE_QUEUE_DEPTH. The environment is re-read on every call —
  /// no latching (a later setenv is honored by the next construction;
  /// see resolve_batch_mode's history). Malformed or out-of-range values
  /// throw std::invalid_argument naming the variable; benches translate
  /// that into the usual exit-2 usage error (bench::serve_config_or_exit).
  static ServerConfig from_env(ServerConfig base);
  static ServerConfig from_env() { return from_env(ServerConfig{}); }

  /// Throws std::invalid_argument unless usable (devices/nodes/max_batch/
  /// tenant_queue_depth >= 1, waits finite and >= 0).
  void validate() const;
};

/// Terminal record of one request.
struct Response {
  u64 id = 0;
  std::string tenant;
  SloClass slo = SloClass::kThroughput;
  Outcome outcome = Outcome::kPending;
  SparseSpectrum spectrum;  // kCompleted only
  double arrival_ms = 0;    // virtual admission time
  double done_ms = 0;       // virtual terminal time
  double latency_ms = 0;    // done - arrival (kCompleted only)
  /// Batch the request executed in (launch order, 0-based); SIZE_MAX for
  /// shed/rejected requests.
  std::size_t batch_seq = static_cast<std::size_t>(-1);
};

/// Exact (not bucketed) latency quantiles of one SLO class, computed from
/// every completed request's modeled latency.
struct ClassLatency {
  std::size_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;
};

/// Snapshot of the serving tier: request accounting, per-class modeled
/// latency percentiles, sustained throughput, and queueing pressure.
struct GpuServeStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t batches = 0;
  std::size_t max_queue_depth = 0;  // high-water pending count (all tenants)
  double virtual_ms = 0;      ///< serving horizon: device-free time after
                              ///< the last launched batch
  double sustained_qps = 0;   ///< completed / virtual seconds
  double mean_batch_fill = 0; ///< executed signals / (batches * max_batch)
  ClassLatency latency;       ///< SloClass::kLatency completions
  ClassLatency throughput;    ///< SloClass::kThroughput completions

  /// Publishes the snapshot-style gauges (cusfft_serve_qps,
  /// cusfft_serve_queue_depth_max, cusfft_serve_batch_fill). The
  /// counters and latency/batch-size histograms are published
  /// incrementally by the Server as requests terminate, so monotonicity
  /// holds across mid-run snapshots.
  void to_metrics(cusim::MetricsRegistry& reg) const;
};

class Server {
 public:
  /// Validates cfg (throws std::invalid_argument). The cluster
  /// (cusim::Cluster + ClusterPlan, nodes x devices) is built lazily at
  /// the first batch launch, shaped by that batch's first request; later
  /// shapes go through the node plans' shape-keyed plan cache, shared
  /// across tenants.
  explicit Server(ServerConfig cfg);
  ~Server();  // stops the batcher thread if running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServerConfig& config() const;

  // ---- Virtual (deterministic) drive — single caller, manual clock ----

  /// Admits a request at virtual time t (clamped to the current clock;
  /// arrivals must be submitted in nondecreasing t). Batches that close
  /// before t launch first — continuous batching never sees the future.
  /// Returns the request id (also for rejected submissions — the typed
  /// rejection is the terminal Response). Throws std::logic_error while
  /// the batcher thread is running.
  u64 submit_at(double t_ms, Request r);

  /// Launches every batch whose close time is <= t_ms, advancing the
  /// virtual clock. No-op when t_ms is in the past.
  void advance(double t_ms);

  /// Flushes the queue: remaining batches launch back to back (reason
  /// "drain") at the device-free time.
  void drain();

  // ---- Threaded drive ----

  /// Spawns the batcher thread; submit()/wait()/cancel() become legal and
  /// submit_at()/advance()/drain() throw until stop().
  void start();
  /// Drains the queue, stops and joins the batcher. Idempotent.
  void stop();
  /// Thread-safe submission (arrival stamps the current virtual clock).
  u64 submit(Request r);
  /// Blocks until the request is terminal. The id must come from submit.
  Response wait(u64 id);
  /// Resolves a still-pending request as shed ("cancel" in the trace).
  /// Returns false when the request is already terminal (or unknown).
  bool cancel(u64 id);

  // ---- Inspection (either mode) ----

  bool done(u64 id) const;
  /// Terminal response, or a stub with Outcome::kPending.
  Response response(u64 id) const;
  GpuServeStats stats() const;

  /// Full decision log with virtual timestamps and modeled latencies
  /// (submit/reject/close/done/free lines) — byte-identical across
  /// reruns of the same trace on the same build.
  std::string schedule_trace() const;
  /// Composition-only log (reject/close lines, ids and reasons, no
  /// floats) — the golden-diff-stable variant CI pins.
  std::string decision_trace() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- Scripted arrival traces (the deterministic replay driver) --------

/// One arrival of a scripted trace. deadline_ms is relative to arrival
/// (+infinity = none).
struct TraceEvent {
  double arrival_ms = 0;
  std::string tenant;
  std::size_t n = 0;
  std::size_t k = 0;
  SloClass slo = SloClass::kThroughput;
  double deadline_ms = std::numeric_limits<double>::infinity();
};

/// A multi-tenant arrival trace (events in nondecreasing arrival_ms).
/// Text format, one event per line ('#' comments and blank lines
/// ignored):  arrival_ms,tenant,n,k,<latency|throughput>,<deadline_ms|inf>
struct Trace {
  std::vector<TraceEvent> events;

  std::string to_text() const;
  /// Throws std::invalid_argument (with the line number) on malformed
  /// input, including out-of-order arrivals.
  static Trace parse(const std::string& text);
};

/// The canned bench/CI trace: three tenants (latency-class "alpha",
/// bulk-throughput "bravo", bursty "charlie" whose bursts overflow small
/// admission quotas), two shapes (n_big/k_big and n_big/4, k_big/4
/// clamped), a few tight deadlines. Deterministic per (n_big, k_big,
/// seed).
Trace canned_trace(std::size_t n_big, std::size_t k_big, u64 seed);

/// Deterministic per-event request derivation shared by replay() and the
/// tests that cross-check completed spectra against single-plan execute:
/// event i of a trace replayed with `signal_seed` uses exactly these
/// Params and samples.
sfft::Params trace_params(const TraceEvent& e, u64 signal_seed);
cvec trace_signal(const TraceEvent& e, u64 signal_seed, std::size_t index);

/// Replays every event through Server::submit_at in arrival order and
/// drains. Returns the request ids in event order.
std::vector<u64> replay(Server& s, const Trace& t, u64 signal_seed);

}  // namespace cusfft::serve
