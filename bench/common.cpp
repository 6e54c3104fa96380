#include "common.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "cufftsim/cufftsim.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/plan.hpp"
#include "cusim/device.hpp"
#include "cusim/metrics.hpp"
#include "psfft/fftw_baseline.hpp"
#include "psfft/psfft.hpp"
#include "sfft/serial.hpp"
#include "signal/generate.hpp"

namespace cusfft::bench {

namespace {

[[noreturn]] void usage_exit(const std::string& msg) {
  std::cerr << "bench: " << msg << "\n"
            << "usage: bench [--min-logn N] [--max-logn N] [--k N]\n"
               "             [--fixed-logn N] [--seed N]\n"
               "             [--algo cusfft|ffast|auto] [--devices N]\n"
               "             [--nodes N] [--nic-gbps G] [--mixed]\n"
               "             [--out-dir DIR] [--profile PATH]\n"
               "             [--json PATH] [--metrics PATH]\n"
               "             [--serve] [--serve-in PATH] [--serve-out "
               "PATH]\n"
               "             [--serve-schedule-out PATH]\n"
               "env: CUSFFT_MIN_LOGN CUSFFT_MAX_LOGN CUSFFT_K "
               "CUSFFT_FIXED_LOGN CUSFFT_SEED\n"
               "     CUSFFT_ALGO CUSFFT_AUTOPICK\n"
               "     CUSFFT_DEVICES CUSFFT_NODES CUSFFT_NIC_GBPS "
               "CUSFFT_MIXED CUSFFT_OUT_DIR\n"
               "     CUSFFT_PROFILE CUSFFT_JSON\n"
               "     CUSFFT_METRICS CUSFFT_SERVE CUSFFT_SERVE_IN "
               "CUSFFT_SERVE_OUT\n"
               "     CUSFFT_SERVE_DEVICES CUSFFT_SERVE_MAX_BATCH "
               "CUSFFT_SERVE_MAX_WAIT_MS\n"
               "     CUSFFT_SERVE_MAX_WAIT_LAT_MS "
               "CUSFFT_SERVE_QUEUE_DEPTH\n";
  std::exit(2);
}

/// Strict unsigned parse: the whole token must be a decimal number.
/// strtoull's silent 0-on-failure (CUSFFT_K=abc -> k=0) degenerated whole
/// bench runs; malformed input is now a usage error instead.
std::size_t parse_u64(const std::string& what, const char* v) {
  if (v == nullptr || *v == '\0' || *v == '-')
    usage_exit(what + ": expected a non-negative integer, got '" +
               (v ? v : "") + "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0')
    usage_exit(what + ": expected a non-negative integer, got '" +
               std::string(v) + "'");
  return static_cast<std::size_t>(x);
}

double parse_double(const std::string& what, const char* v) {
  if (v == nullptr || *v == '\0')
    usage_exit(what + ": expected a number, got ''");
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0')
    usage_exit(what + ": expected a number, got '" + std::string(v) + "'");
  return x;
}

double env_or_d(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? parse_double(name, v) : def;
}

sfft::Algorithm parse_algo(const std::string& what, const char* v) {
  const auto a = sfft::parse_algorithm(v == nullptr ? "" : v);
  if (!a)
    usage_exit(what + ": expected 'cusfft', 'ffast' or 'auto', got '" +
               (v ? std::string(v) : "") + "'");
  return *a;
}

/// Strict path value: set-but-empty is a usage error, not a silent
/// disable (CUSFFT_METRICS= would otherwise look like metrics were
/// requested and produce nothing).
std::string parse_path(const std::string& what, const char* v) {
  if (v == nullptr || *v == '\0')
    usage_exit(what + ": expected a non-empty path, got ''");
  return v;
}

// Profile artifact path registered by BenchOpts::parse (process-wide so
// run_cusfft can emit without threading BenchOpts through every helper).
std::string g_profile_path;

// The benches run the paper's parameter regime: B = sqrt(nk/log2 n) with
// unit constant (Section III step 2), 1e-6 filter tolerance and L =
// 4 location + 8 estimation loops (reference-implementation-scale
// constants). The library defaults are more conservative (tuned for exact
// recovery at small n in the tests); override via CUSFFT_BCST /
// CUSFFT_LOOPS_LOC / CUSFFT_LOOPS_EST / CUSFFT_TOL.
}  // namespace

std::size_t env_or(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  return v ? parse_u64(name, v) : def;
}

sfft::Params paper_params(std::size_t n, std::size_t k, u64 seed) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.seed = seed;
  p.bcst = env_or_d("CUSFFT_BCST", 1.0);
  p.loops_loc = env_or("CUSFFT_LOOPS_LOC", 4);
  p.loops_est = env_or("CUSFFT_LOOPS_EST", 8);
  p.filter.tolerance = env_or_d("CUSFFT_TOL", 1e-6);
  return p;
}

BenchOpts BenchOpts::parse(int argc, char** argv) {
  BenchOpts o;
  o.min_logn = env_or("CUSFFT_MIN_LOGN", o.min_logn);
  o.max_logn = env_or("CUSFFT_MAX_LOGN", o.max_logn);
  o.k = env_or("CUSFFT_K", o.k);
  o.fixed_logn = env_or("CUSFFT_FIXED_LOGN", o.fixed_logn);
  o.seed = env_or("CUSFFT_SEED", o.seed);
  // Re-read per call like everything else — the library applies
  // CUSFFT_ALGO itself at resolution time; the bench parses it here so a
  // malformed value is a startup usage error, not a mid-sweep throw. Same
  // for CUSFFT_AUTOPICK (parsed for validation only).
  if (const char* a = std::getenv("CUSFFT_ALGO"))
    o.algo = parse_algo("CUSFFT_ALGO", a);
  try {
    (void)gpu::autopick_mode_from_env();
  } catch (const std::invalid_argument& e) {
    usage_exit(e.what());
  }
  o.devices = env_or("CUSFFT_DEVICES", o.devices);
  o.nodes = env_or("CUSFFT_NODES", o.nodes);
  o.nic_gbps = env_or_d("CUSFFT_NIC_GBPS", o.nic_gbps);
  o.mixed = env_or("CUSFFT_MIXED", o.mixed ? 1 : 0) != 0;
  if (const char* d = std::getenv("CUSFFT_OUT_DIR")) o.out_dir = d;
  if (const char* p = std::getenv("CUSFFT_PROFILE")) o.profile = p;
  if (const char* p = std::getenv("CUSFFT_JSON")) o.json = p;
  if (const char* p = std::getenv("CUSFFT_METRICS"))
    o.metrics = parse_path("CUSFFT_METRICS", p);
  o.serve = env_or("CUSFFT_SERVE", o.serve ? 1 : 0) != 0;
  if (const char* p = std::getenv("CUSFFT_SERVE_IN"))
    o.serve_in = parse_path("CUSFFT_SERVE_IN", p);
  if (const char* p = std::getenv("CUSFFT_SERVE_OUT"))
    o.serve_out = parse_path("CUSFFT_SERVE_OUT", p);
  // Every argv token must be consumed: a trailing flag with no value or
  // an unknown flag is a usage error, not a silent no-op (the old
  // two-at-a-time loop dropped both).
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_exit(key + ": missing value");
      return argv[++i];
    };
    if (key == "--mixed") o.mixed = true;
    else if (key == "--min-logn") o.min_logn = parse_u64(key, value());
    else if (key == "--max-logn") o.max_logn = parse_u64(key, value());
    else if (key == "--k") o.k = parse_u64(key, value());
    else if (key == "--fixed-logn") o.fixed_logn = parse_u64(key, value());
    else if (key == "--seed") o.seed = parse_u64(key, value());
    else if (key == "--algo") o.algo = parse_algo(key, value());
    else if (key == "--devices") o.devices = parse_u64(key, value());
    else if (key == "--nodes") o.nodes = parse_u64(key, value());
    else if (key == "--nic-gbps") o.nic_gbps = parse_double(key, value());
    else if (key == "--out-dir") o.out_dir = value();
    else if (key == "--profile") o.profile = value();
    else if (key == "--json") o.json = value();
    else if (key == "--metrics") o.metrics = parse_path(key, value());
    else if (key == "--serve") o.serve = true;
    else if (key == "--serve-in") o.serve_in = parse_path(key, value());
    else if (key == "--serve-out") o.serve_out = parse_path(key, value());
    else if (key == "--serve-schedule-out")
      o.serve_schedule_out = parse_path(key, value());
    else usage_exit("unknown flag '" + key + "'");
  }
  if (o.max_logn < o.min_logn) o.max_logn = o.min_logn;
  if (o.devices == 0) o.devices = 1;
  if (o.nodes == 0) o.nodes = 1;
  // 0 means "model default"; an explicit NIC bandwidth must be usable.
  if (o.nic_gbps < 0 || (o.nic_gbps != o.nic_gbps))
    usage_exit("--nic-gbps/CUSFFT_NIC_GBPS: expected a positive number");
  g_profile_path = o.profile;
  return o;
}

const std::string& profile_path() { return g_profile_path; }

serve::ServerConfig serve_config_or_exit(serve::ServerConfig base) {
  try {
    return serve::ServerConfig::from_env(std::move(base));
  } catch (const std::invalid_argument& e) {
    usage_exit(e.what());
  }
}

bool write_results_json(const std::string& path, const std::string& bench,
                        const std::vector<JsonRow>& rows,
                        const std::string& metrics_json) {
  std::ofstream f(path);
  if (!f) {
    std::cout << "[json] failed to write " << path << "\n";
    return false;
  }
  f << "{\n  \"bench\": \"" << bench << "\",\n  \"results\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    f << "    {\"name\": \"" << rows[i].name << "\", ";
    std::snprintf(buf, sizeof(buf), "%.6f", rows[i].host_ms);
    f << "\"host_ms\": " << buf << ", ";
    std::snprintf(buf, sizeof(buf), "%.6f", rows[i].model_ms);
    f << "\"model_ms\": " << buf << "}";
    f << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  f << "  ]";
  if (!metrics_json.empty()) {
    // The snapshot document is already valid JSON; embed it verbatim
    // (minus its trailing newline) so the bench summary and the metrics
    // come from one artifact.
    std::string doc = metrics_json;
    while (!doc.empty() && doc.back() == '\n') doc.pop_back();
    f << ",\n  \"metrics\": " << doc;
  }
  f << "\n}\n";
  std::cout << "[json] " << path << "\n";
  return f.good();
}

bool write_metrics_json(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    std::cout << "[metrics] failed to write " << path << "\n";
    return false;
  }
  f << cusim::MetricsRegistry::global().expose_json();
  return f.good();
}

bool write_metrics_artifacts(const std::string& path) {
  const auto snap = cusim::MetricsRegistry::global().snapshot();
  bool ok = true;
  {
    std::ofstream f(path);
    if (f) f << snap.to_json();
    ok = ok && f.good();
  }
  {
    std::ofstream f(path + ".prom");
    if (f) f << snap.to_prometheus();
    ok = ok && f.good();
  }
  if (ok)
    std::cout << "[metrics] " << path << " (+.prom)\n";
  else
    std::cout << "[metrics] failed to write " << path << "\n";
  return ok;
}

void write_profile_artifact(const cusim::CaptureProfile& p,
                            const std::string& path) {
  if (p.write(path))
    std::cout << "[profile] " << path << "\n";
  else
    std::cout << "[profile] failed to write " << path << "\n";
  if (!p.to_table().write_csv(path + ".csv"))
    std::cout << "[profile] failed to write " << path << ".csv\n";
}

cvec make_signal(std::size_t n, std::size_t k, u64 seed) {
  Rng rng(seed ^ (n * 2654435761ULL) ^ k);
  return signal::make_sparse_signal(n, k, rng).x;
}

RunResult run_cusfft(std::size_t n, std::size_t k, const gpu::Options& opts,
                     u64 seed, const cvec& x,
                     std::map<std::string, double>* steps) {
  cusim::Device dev;
  gpu::GpuPlan plan(dev, paper_params(n, k, seed), opts);
  gpu::GpuExecStats stats;
  plan.execute(x, &stats);
  if (steps) *steps = stats.step_model_ms;
  // Registered --profile / CUSFFT_PROFILE path: emit this capture's
  // artifact (sweeps overwrite; the file ends up holding the last run).
  if (!g_profile_path.empty())
    write_profile_artifact(dev.end_capture(), g_profile_path);
  return {stats.model_ms, stats.host_ms};
}

RunResult run_cufft_dense(std::size_t n, const cvec& x) {
  cusim::Device dev;
  cufftsim::Plan plan(dev, n);
  cusim::DeviceBuffer<cplx> data(n);
  std::copy(x.begin(), x.end(), data.host().begin());  // GPU-resident input
  WallTimer wall;
  dev.begin_capture();
  plan.execute(data, cufftsim::Direction::kForward);
  return {dev.elapsed_model_ms(), wall.ms()};
}

RunResult run_fftw_parallel(std::size_t n, const cvec& x) {
  cvec out(n);
  const auto r = psfft::dense_fft_parallel(x, out, ThreadPool::global());
  return {r.model_ms, r.host_ms};
}

RunResult run_psfft(std::size_t n, std::size_t k, u64 seed, const cvec& x) {
  psfft::PsfftPlan plan(paper_params(n, k, seed), ThreadPool::global());
  psfft::CpuExecStats stats;
  plan.execute(x, &stats);
  return {stats.model_ms, stats.host_ms};
}

RunResult run_serial_sfft(std::size_t n, std::size_t k, u64 seed,
                          const cvec& x, StepTimers* timers) {
  sfft::SerialPlan plan(paper_params(n, k, seed));
  WallTimer wall;
  plan.execute(x, timers);
  return {0.0, wall.ms()};
}

void emit(const BenchOpts& o, const std::string& name,
          const ResultTable& t) {
  std::cout << "== " << name << " ==\n" << t.to_ascii() << "\n";
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path = o.out_dir + "/" + name + ".csv";
  if (t.write_csv(path))
    std::cout << "[csv] " << path << "\n\n";
  else
    std::cout << "[csv] failed to write " << path << "\n\n";
}

}  // namespace cusfft::bench
