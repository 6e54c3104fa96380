// Shared harness for the figure-regeneration benches: CLI/env options, the
// five measured implementations (cusFFT baseline/optimized, simulated cuFFT,
// parallel FFTW stand-in, PsFFT), and CSV output.
//
// Times reported:
//   model_ms — modeled on the paper's hardware (Table I GPU / Table II CPU)
//              from counters of the functionally executed code; this is the
//              column the figure shapes are judged on (DESIGN.md §1).
//   host_ms  — wall time of the functional run on this machine, for
//              transparency.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "core/timer.hpp"
#include "core/types.hpp"
#include "cusfft/options.hpp"
#include "cusfft/server.hpp"
#include "cusim/profiler.hpp"
#include "sfft/params.hpp"

namespace cusfft::bench {

struct BenchOpts {
  std::size_t min_logn = 18;
  std::size_t max_logn = 22;  // paper sweeps to 27; env CUSFFT_MAX_LOGN
  std::size_t k = 1000;       // the paper's fixed sparsity for Fig. 5(a)
  std::size_t fixed_logn = 22;  // paper uses 2^27 for Fig. 5(b)/(f)
  u64 seed = 20160523;          // IPDPS'16 vintage
  /// Which sparse-FFT backend bench_throughput runs: the paper's bucket
  /// hashing (kCusfft, the default), the FFAST aliasing/peeling backend
  /// (kFfast), or the crossover auto-picker (kAuto). kAuto also turns on
  /// the crossover sweep: bench_throughput calibrates a (n, k, noise)
  /// grid, checks the picker against an oracle that runs both backends,
  /// and emits bench_results/crossover.csv. Env CUSFFT_ALGO / --algo.
  sfft::Algorithm algo = sfft::Algorithm::kCusfft;
  /// Simulated device count for fleet-aware benches (bench_throughput adds
  /// a sharded row and emits the merged multi-device trace when > 1). Env
  /// CUSFFT_DEVICES / --devices.
  std::size_t devices = 1;
  /// Simulated node count for cluster-aware benches. bench_throughput with
  /// --nodes > 1 runs the cluster A/B (1 node vs N nodes at `devices`
  /// devices per node, bit-identical spectra, >= 1.5x modeled speedup
  /// gate) plus the oversized-signal slab demo. Env CUSFFT_NODES /
  /// --nodes.
  std::size_t nodes = 1;
  /// Modeled NIC fabric bandwidth in Gbit/s for the cluster interconnect;
  /// 0 keeps cusim::NicModel's default (~100 Gbit/s). Must be positive
  /// when given. Env CUSFFT_NIC_GBPS / --nic-gbps.
  double nic_gbps = 0;
  /// bench_throughput: add the mixed-shape fleet sweep (skewed per-signal
  /// shapes, PCIe staging A/B). Env CUSFFT_MIXED / --mixed.
  bool mixed = false;
  std::string out_dir = "bench_results";
  /// When non-empty, the bench writes a chrome-trace profile artifact of
  /// its last cusFFT capture to this path (plus the profile's CSV next to
  /// it). parse() also registers the path process-wide so run_cusfft()
  /// emits it without per-bench wiring (docs/PROFILING.md).
  std::string profile;
  /// When non-empty, benches that support it (bench_throughput) write a
  /// machine-readable summary — host_ms and modeled ms per configuration —
  /// to this path. Env CUSFFT_JSON / --json.
  std::string json;
  /// When non-empty, benches that support it (bench_throughput) write the
  /// always-on MetricsRegistry snapshot to this path (JSON), the same
  /// snapshot in Prometheus text format to `<path>.prom`, and a mid-run
  /// snapshot to `<path>.snap1.json` for tools/metrics_check's
  /// monotonicity gate. Env CUSFFT_METRICS / --metrics.
  std::string metrics;
  /// bench_throughput: replay a multi-tenant arrival trace through the
  /// serving tier (cusfft::serve::Server) instead of the batch sweeps,
  /// reporting per-SLO-class latency percentiles and sustained QPS. Env
  /// CUSFFT_SERVE / --serve.
  bool serve = false;
  /// --serve: read the arrival trace from this file (serve::Trace text
  /// format) instead of the canned three-tenant trace. Env
  /// CUSFFT_SERVE_IN / --serve-in.
  std::string serve_in;
  /// --serve: write the run's float-free decision trace (batch
  /// composition + shed/reject decisions) to this path — the golden
  /// scheduling artifact CI diffs. Env CUSFFT_SERVE_OUT / --serve-out.
  std::string serve_out;
  /// --serve: write the run's schedule trace (Server::schedule_trace():
  /// per-batch device, virtual start/finish times as %.6f ms) to this path
  /// — the golden CI diffs to pin the modeled schedule itself.
  /// --serve-schedule-out only.
  std::string serve_schedule_out;

  /// Reads CUSFFT_MIN_LOGN / CUSFFT_MAX_LOGN / CUSFFT_K / CUSFFT_FIXED_LOGN
  /// / CUSFFT_SEED / CUSFFT_ALGO / CUSFFT_DEVICES / CUSFFT_NODES /
  /// CUSFFT_NIC_GBPS / CUSFFT_MIXED / CUSFFT_OUT_DIR / CUSFFT_PROFILE /
  /// CUSFFT_METRICS, then applies --key value args (--profile <path>,
  /// --algo cusfft|ffast|auto, --devices <N>, --nodes <N>, --nic-gbps <G>)
  /// and the boolean --mixed flag. CUSFFT_AUTOPICK (measured|modeled) is
  /// validated here too so a typo fails at startup, not mid-sweep.
  /// The environment is re-read on every call — no latching.
  /// Malformed numbers, empty path values, a flag missing its value, and
  /// unknown flags are usage errors: the process prints usage to stderr
  /// and exits with status 2 instead of silently running a degenerate
  /// configuration.
  static BenchOpts parse(int argc, char** argv);
};

struct RunResult {
  double model_ms = 0;
  double host_ms = 0;
};

/// Strict numeric environment read: returns `def` when `name` is unset,
/// exits with the usage message when the value is malformed (the old
/// strtoull-based read silently turned CUSFFT_K=abc into 0).
std::size_t env_or(const char* name, std::size_t def);

/// serve::ServerConfig::from_env(base) with bench error semantics: a
/// malformed CUSFFT_SERVE_* value (the library's typed
/// std::invalid_argument) becomes the usual exit-2 usage error. Re-reads
/// the environment on every call, like the library.
serve::ServerConfig serve_config_or_exit(serve::ServerConfig base);

/// Deterministic k-sparse benchmark signal (unit magnitudes, the reference
/// implementations' workload).
cvec make_signal(std::size_t n, std::size_t k, u64 seed);

/// The sparse-FFT configuration all benches run (the paper's parameter
/// regime; overridable via CUSFFT_BCST / CUSFFT_LOOPS_LOC /
/// CUSFFT_LOOPS_EST / CUSFFT_TOL).
sfft::Params paper_params(std::size_t n, std::size_t k, u64 seed);

RunResult run_cusfft(std::size_t n, std::size_t k, const gpu::Options& opts,
                     u64 seed, const cvec& x,
                     std::map<std::string, double>* steps = nullptr);
RunResult run_cufft_dense(std::size_t n, const cvec& x);
RunResult run_fftw_parallel(std::size_t n, const cvec& x);
RunResult run_psfft(std::size_t n, std::size_t k, u64 seed, const cvec& x);
RunResult run_serial_sfft(std::size_t n, std::size_t k, u64 seed,
                          const cvec& x, StepTimers* timers = nullptr);

/// Prints the table, writes <out_dir>/<name>.csv, and reports the path.
void emit(const BenchOpts& o, const std::string& name, const ResultTable& t);

/// Writes `p` as a chrome-trace JSON artifact to `path` and its structured
/// table as CSV to `path + ".csv"`. Used by run_cusfft() when a profile
/// path is registered, and directly by benches that drive GpuPlan
/// themselves (bench_gpu_profile, bench_throughput).
void write_profile_artifact(const cusim::CaptureProfile& p,
                            const std::string& path);

/// The profile path registered by the last BenchOpts::parse() (empty when
/// profiling is off).
const std::string& profile_path();

/// One row of a --json bench summary.
struct JsonRow {
  std::string name;
  double host_ms = 0;
  double model_ms = 0;
};

/// Writes `{"bench": <bench>, "results": [{"name", "host_ms",
/// "model_ms"}...]}` to `path`. When `metrics_json` is non-empty (a
/// document from MetricsRegistry::expose_json) it is embedded verbatim
/// under a top-level "metrics" key, so bench_gate baselines and the
/// metrics snapshot come from one artifact. Returns false (and reports to
/// stdout) when the file cannot be written.
bool write_results_json(const std::string& path, const std::string& bench,
                        const std::vector<JsonRow>& rows,
                        const std::string& metrics_json = "");

/// Writes the current MetricsRegistry::global() snapshot to `path` (JSON,
/// schema "cusfft-metrics-v1") and to `path + ".prom"` (Prometheus text
/// exposition). Returns false when either file cannot be written.
bool write_metrics_artifacts(const std::string& path);

/// Writes only the JSON snapshot to `path` — used for the mid-run
/// `<metrics>.snap1.json` that tools/metrics_check compares against the
/// final snapshot for counter monotonicity.
bool write_metrics_json(const std::string& path);

}  // namespace cusfft::bench
