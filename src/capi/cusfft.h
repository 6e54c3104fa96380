/* C API for the cusFFT library — a cuFFT-style plan/execute/destroy
 * interface so C codebases (and FFI users) can adopt the sparse FFT
 * without touching C++. All functions return CUSFFT_SUCCESS (0) or a
 * negative error code; no exceptions cross this boundary.
 *
 *   cusfft_handle h;
 *   cusfft_plan(&h, 1 << 20, 50, CUSFFT_BACKEND_GPU_OPTIMIZED);
 *   cusfft_execute(h, in_interleaved, coeffs, locs, &count);
 *   cusfft_destroy(h);
 */
#ifndef CUSFFT_C_API_H_
#define CUSFFT_C_API_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct cusfft_plan_t* cusfft_handle;

typedef enum {
  CUSFFT_BACKEND_SERIAL = 0,       /* reference CPU implementation */
  CUSFFT_BACKEND_PSFFT = 1,        /* multicore CPU */
  CUSFFT_BACKEND_GPU_BASELINE = 2, /* Section IV kernels (simulated K20x) */
  CUSFFT_BACKEND_GPU_OPTIMIZED = 3 /* Section V kernels (simulated K20x) */
} cusfft_backend;

typedef enum {
  CUSFFT_SUCCESS = 0,
  CUSFFT_INVALID_ARGUMENT = -1, /* bad n/k/backend/null pointer */
  CUSFFT_ALLOC_FAILED = -2,     /* out of (device) memory */
  CUSFFT_INTERNAL_ERROR = -3
} cusfft_status;

/* Creates a plan for signals of length n (power of two >= 16) expecting
 * about k large coefficients. */
cusfft_status cusfft_plan(cusfft_handle* out, size_t n, size_t k,
                          cusfft_backend backend);

/* Optional: fix the randomization seed (plans are deterministic per seed).
 * Must be called before the first execute; rebuilds the internal state. */
cusfft_status cusfft_set_seed(cusfft_handle h, uint64_t seed);

/* Which sparse-FFT algorithm the plan runs. CUSFFT is the paper's
 * bucket-hashing sFFT (the default); FFAST is the aliasing/peeling
 * backend, which wins at low k; AUTO defers to the crossover picker. */
typedef enum {
  CUSFFT_ALGO_CUSFFT = 0,
  CUSFFT_ALGO_FFAST = 1,
  CUSFFT_ALGO_AUTO = 2
} cusfft_algorithm;

/* Selects the algorithm. Must be called before the first execute; rebuilds
 * the internal state. On GPU backends AUTO consults the crossover picker
 * (mode from CUSFFT_AUTOPICK: "measured" calibrates each shape once by
 * running both backends, "modeled" compares analytic costs); on CPU
 * backends AUTO runs the default bucket-hashing algorithm, and FFAST runs
 * the reference CPU implementation. The CUSFFT_ALGO environment variable
 * ("cusfft" / "ffast" / "auto") overrides this setting; both variables
 * are re-read on every rebuild and every multi-device batch (never
 * latched), and malformed values fail the call with
 * CUSFFT_INVALID_ARGUMENT. */
cusfft_status cusfft_set_algorithm(cusfft_handle h, cusfft_algorithm algo);

/* Runs the transform. `input` is n interleaved (re, im) doubles.
 * On entry *count is the capacity of locations/values (pairs); on exit it
 * is the number of recovered coefficients (truncated to the capacity,
 * largest magnitudes first). `values` is interleaved (re, im). */
cusfft_status cusfft_execute(cusfft_handle h, const double* input,
                             uint64_t* locations, double* values,
                             size_t* count);

/* Batch (throughput) variant. `inputs` is `batch` signals of n interleaved
 * (re, im) doubles each, laid out back to back (stride 2*n doubles).
 * `capacity` is the per-signal capacity of the output arrays: signal i
 * writes at most `capacity` pairs into locations + i*capacity and
 * values + 2*i*capacity, and counts[i] receives the number written
 * (truncated to capacity, largest magnitudes first). GPU backends reuse
 * one plan's device state across the whole batch; CPU backends loop. */
cusfft_status cusfft_execute_many(cusfft_handle h, const double* inputs,
                                  size_t batch, size_t capacity,
                                  uint64_t* locations, double* values,
                                  size_t* counts);

/* Batch scheduling toggle for GPU backends. Nonzero (the default):
 * cusfft_execute_many overlaps signal i+1's transfer + binning kernels
 * with signal i's selection/estimation kernels on the modeled timeline
 * (stream-pipelined). Zero: signals run one at a time. Results are
 * bit-identical either way; only the modeled batch time changes. CPU
 * backends accept and ignore the call. */
cusfft_status cusfft_set_batch_pipeline(cusfft_handle h, int enable);

/* Plan introspection. */
cusfft_status cusfft_get_size(cusfft_handle h, size_t* n, size_t* k);

/* ---- Multi-device fleet (GPU backends) ----
 * Shards each cusfft_execute_many batch across `devices` simulated GPUs
 * (one host thread team per device, the stream pipeline live inside each
 * shard, PCIe copies contending for the shared host link). Results stay
 * in input order and bit-identical to the single-device path; only the
 * modeled batch time changes. devices == 1 (the default) restores the
 * single-device plan. Rebuilds the internal state, so call before the
 * first execute. CPU backends accept and ignore the setting. */
cusfft_status cusfft_set_device_count(cusfft_handle h, size_t devices);

/* Root-complex admission policy for the fleet's H2D/D2H copies.
 * UNLIMITED (the default): every in-flight copy splits host-link
 * bandwidth. ROUND_ROBIN: one copy at a time, devices admitted in
 * rotation. MAX_INFLIGHT: at most `max_inflight` concurrent copies.
 * Staged policies stagger the shards' bulk uploads so the first-admitted
 * device's kernels start sooner; total bytes moved are identical. Takes
 * effect on the next execute; a single device is unaffected. CPU
 * backends accept and ignore the call. */
typedef enum {
  CUSFFT_STAGING_UNLIMITED = 0,
  CUSFFT_STAGING_ROUND_ROBIN = 1,
  CUSFFT_STAGING_MAX_INFLIGHT = 2
} cusfft_pcie_staging;

/* `max_inflight` is only read for CUSFFT_STAGING_MAX_INFLIGHT (must be
 * >= 1 there; ignored otherwise). */
cusfft_status cusfft_set_pcie_staging(cusfft_handle h,
                                      cusfft_pcie_staging policy,
                                      size_t max_inflight);

/* Signals always shard by the per-signal cost model, LPT-first. */

/* Fleet-level modeled timing of the most recent execute/execute_many on
 * a GPU backend (whatever the device count — a single device reports
 * imbalance 1.0 and zero PCIe stalls). */
typedef struct {
  double model_ms;      /* merged fleet makespan (shared time origin) */
  double imbalance;     /* max/mean busy-device finish; 1.0 = balanced */
  double pcie_stall_ms; /* summed host-link contention dilation */
  size_t devices;
  size_t signals;
  double pcie_queue_ms; /* summed staging admission wait (0 unlimited) */
} cusfft_fleet_stats;

/* CUSFFT_INVALID_ARGUMENT when no GPU batch has run yet (or on a CPU
 * backend). */
cusfft_status cusfft_get_fleet_stats(cusfft_handle h,
                                     cusfft_fleet_stats* out);

/* Per-device utilization of the last run: the share of the makespan
 * device `device` had a kernel resident (0 for an idle device).
 * CUSFFT_INVALID_ARGUMENT when out of range or no run yet. */
cusfft_status cusfft_get_device_utilization(cusfft_handle h, size_t device,
                                            double* utilization);

/* ---- Multi-node cluster (GPU backends) ----
 * Stacks the fleet onto `nodes` simulated hosts: each node owns
 * cusfft_set_device_count devices behind its own PCIe root complex, and
 * the nodes are joined by a modeled NIC fabric (bandwidth, per-message
 * latency, and contention distinct from PCIe). Batches shard across
 * nodes by the analytic cost model plus a NIC staging term (node 0 is
 * co-located with the data and pays none); results stay in input order
 * and bit-identical to the single-node path. nodes == 1 (the default)
 * restores the plain fleet. Rebuilds the internal state, so call before
 * the first execute. CPU backends accept and ignore the setting. */
cusfft_status cusfft_set_node_count(cusfft_handle h, size_t nodes);

/* Cluster-level modeled timing of the most recent execute/execute_many
 * on a GPU backend (whatever the node count — a single node reports
 * nodes == 1, imbalance 1.0, and zero NIC time). */
typedef struct {
  double model_ms;     /* merged cluster makespan (shared time origin) */
  double imbalance;    /* max/mean busy-node finish; 1.0 = balanced */
  double nic_stall_ms; /* summed fabric-contention dilation */
  double nic_queue_ms; /* summed NIC port-FIFO admission wait */
  double nic_bytes;    /* bytes that crossed the fabric */
  size_t nic_transfers;
  size_t nodes;
  size_t devices; /* total, across nodes */
  size_t signals;
} cusfft_cluster_stats;

/* CUSFFT_INVALID_ARGUMENT when no GPU batch has run yet (or on a CPU
 * backend). */
cusfft_status cusfft_get_cluster_stats(cusfft_handle h,
                                       cusfft_cluster_stats* out);

/* ---- Profiling (GPU backends) ----
 * After an execute/execute_many on a GPU backend the plan retains a
 * capture profile of the run: a chrome://tracing JSON document (loadable
 * at chrome://tracing or ui.perfetto.dev) with one track per stream plus
 * a PCIe track, and the structured per-kernel/per-phase/allocation
 * telemetry embedded under its top-level "profile" key. See
 * docs/PROFILING.md for the schema.
 *
 * cusfft_profile_json copies the document into `buf` (capacity `cap`
 * bytes) and NUL-terminates it. `*len` always receives the required
 * buffer size in bytes, including the terminator; pass buf == NULL (or an
 * insufficient cap) to query the size first — the call then returns
 * CUSFFT_SUCCESS without copying when buf is NULL, or
 * CUSFFT_INVALID_ARGUMENT when cap is too small. Returns
 * CUSFFT_INVALID_ARGUMENT when no profile is available (CPU backend, or
 * no execute yet). */
cusfft_status cusfft_profile_json(cusfft_handle h, char* buf, size_t cap,
                                  size_t* len);

/* Writes the same document to `path`. CUSFFT_INTERNAL_ERROR on I/O
 * failure; CUSFFT_INVALID_ARGUMENT when no profile is available. */
cusfft_status cusfft_profile_write(cusfft_handle h, const char* path);

/* ---- Always-on metrics (process-wide, no handle) ----
 * Every execute on a GPU backend feeds a process-wide registry of
 * counters, gauges, and latency histograms (cusim::MetricsRegistry; see
 * docs/PROFILING.md, "Capture vs. continuous metrics"). These calls
 * expose a point-in-time snapshot; unlike the capture profile above they
 * work across plans and never require a prior execute (an untouched
 * process exposes an empty-but-valid document).
 *
 * cusfft_metrics_json copies the JSON snapshot (schema
 * "cusfft-metrics-v1") into `buf` with the same buf/cap/len protocol as
 * cusfft_profile_json: `*len` always receives the required size incl.
 * NUL; buf == NULL queries the size, an insufficient cap returns
 * CUSFFT_INVALID_ARGUMENT. cusfft_metrics_text is the same snapshot in
 * Prometheus text exposition format. */
cusfft_status cusfft_metrics_json(char* buf, size_t cap, size_t* len);
cusfft_status cusfft_metrics_text(char* buf, size_t cap, size_t* len);

typedef enum {
  CUSFFT_METRICS_JSON = 0,      /* "cusfft-metrics-v1" JSON document */
  CUSFFT_METRICS_PROMETHEUS = 1 /* Prometheus text exposition format */
} cusfft_metrics_format;

/* Writes one snapshot to `path` in the requested format.
 * CUSFFT_INTERNAL_ERROR on I/O failure. */
cusfft_status cusfft_metrics_write(const char* path,
                                   cusfft_metrics_format format);

/* Zeroes every counter/gauge/histogram in the registry (a new baseline
 * for the next scrape window). Instruments stay registered. */
cusfft_status cusfft_metrics_reset(void);

/* ---- Multi-tenant serving tier (deterministic virtual clock) ----
 * A cusfft_server wraps cusfft::serve::Server: per-tenant submissions
 * with a latency- or throughput-class SLO and an optional deadline,
 * bounded per-tenant admission (overflow is rejected immediately, never
 * blocked), and a dynamic batcher that coalesces pending requests into
 * mixed-shape fleet batches (shape-keyed plan cache shared across
 * tenants). The C surface exposes the virtual-clock drive: submissions
 * carry a nondecreasing arrival time in modeled milliseconds and
 * cusfft_server_advance/_drain launch the batches, so replays are
 * bit-reproducible. Every request terminates in exactly one of
 * {completed, shed, rejected}. */
typedef struct cusfft_server_t* cusfft_server;

typedef enum {
  CUSFFT_SLO_LATENCY = 0,   /* short batch-close window, preempts */
  CUSFFT_SLO_THROUGHPUT = 1 /* long accumulation window */
} cusfft_slo_class;

typedef enum {
  CUSFFT_REQUEST_PENDING = 0,
  CUSFFT_REQUEST_COMPLETED = 1,
  CUSFFT_REQUEST_SHED = 2,    /* deadline expired before launch */
  CUSFFT_REQUEST_REJECTED = 3 /* per-tenant queue-depth backpressure */
} cusfft_request_outcome;

typedef struct {
  size_t devices;            /* simulated fleet size, >= 1 */
  size_t max_batch;          /* size batch-close trigger, >= 1 */
  size_t tenant_queue_depth; /* per-tenant admission bound, >= 1 */
  double max_wait_latency_ms;    /* latency-class close window */
  double max_wait_throughput_ms; /* throughput-class close window */
} cusfft_server_config;

/* Fills `out` with the library defaults overlaid with the CUSFFT_SERVE_*
 * environment knobs (re-read on every call; malformed values return
 * CUSFFT_INVALID_ARGUMENT). */
cusfft_status cusfft_server_config_default(cusfft_server_config* out);

/* cfg == NULL uses cusfft_server_config_default(). */
cusfft_status cusfft_server_create(cusfft_server* out,
                                   const cusfft_server_config* cfg);

/* Submits one request for `tenant` arriving at virtual time `arrival_ms`
 * (nondecreasing across submissions; clamped up to the server clock).
 * `input` is n interleaved (re, im) doubles; n a power of two >= 16.
 * `deadline_ms` is relative to arrival; <= 0 means none. `request_id`
 * receives the id — check cusfft_server_outcome for an immediate
 * backpressure rejection. */
cusfft_status cusfft_server_submit(cusfft_server s, const char* tenant,
                                   double arrival_ms, size_t n, size_t k,
                                   cusfft_slo_class slo, double deadline_ms,
                                   const double* input,
                                   uint64_t* request_id);

/* Launches every batch that closes up to virtual time t_ms. */
cusfft_status cusfft_server_advance(cusfft_server s, double t_ms);

/* Flushes the queue (remaining batches launch back to back). */
cusfft_status cusfft_server_drain(cusfft_server s);

cusfft_status cusfft_server_outcome(cusfft_server s, uint64_t request_id,
                                    cusfft_request_outcome* out);

/* Copies a completed request's spectrum with the cusfft_execute output
 * protocol: on entry *count is the capacity of locations/values (pairs),
 * on exit the number written (largest magnitudes first). `latency_ms`
 * (optional, may be NULL) receives the modeled queue+execute latency.
 * CUSFFT_INVALID_ARGUMENT unless the request completed. */
cusfft_status cusfft_server_result(cusfft_server s, uint64_t request_id,
                                   uint64_t* locations, double* values,
                                   size_t* count, double* latency_ms);

typedef struct {
  size_t submitted;
  size_t completed;
  size_t shed;
  size_t rejected;
  size_t batches;
  size_t max_queue_depth; /* high-water pending count, all tenants */
  double virtual_ms;      /* serving horizon on the modeled clock */
  double sustained_qps;   /* completed / virtual seconds */
  double latency_p50_ms;  /* latency-class completions */
  double latency_p99_ms;
  double throughput_p50_ms; /* throughput-class completions */
  double throughput_p99_ms;
} cusfft_serve_stats;

cusfft_status cusfft_server_stats(cusfft_server s, cusfft_serve_stats* out);

cusfft_status cusfft_server_destroy(cusfft_server s);

cusfft_status cusfft_destroy(cusfft_handle h);

/* Human-readable name for a status code (static storage). */
const char* cusfft_status_string(cusfft_status s);

#ifdef __cplusplus
}
#endif

#endif /* CUSFFT_C_API_H_ */
