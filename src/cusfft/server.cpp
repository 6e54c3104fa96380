#include "cusfft/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/rng.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusim/cluster.hpp"
#include "cusim/metrics.hpp"
#include "signal/generate.hpp"

namespace cusfft::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void bad_env(const char* name, const char* raw,
                          const char* want) {
  std::ostringstream os;
  os << name << "=\"" << raw << "\": expected " << want;
  throw std::invalid_argument(os.str());
}

// Strict environment parsers, mirroring bench/common.cpp semantics but as
// typed errors: the whole value must parse, nothing latches. Unset or
// empty keeps the fallback.
std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0' || raw[0] == '-')
    bad_env(name, raw, "a non-negative integer");
  return static_cast<std::size_t>(v);
}

double env_ms(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (errno != 0 || end == raw || *end != '\0' || !std::isfinite(v) || v < 0)
    bad_env(name, raw, "a finite non-negative number of milliseconds");
  return v;
}

std::string fmt_ms(double v) {
  if (std::isinf(v)) return "inf";
  char b[40];
  std::snprintf(b, sizeof b, "%.6f", v);
  return b;
}

std::string fmt_ids(const std::vector<u64>& ids) {
  std::string s = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(ids[i]);
  }
  s += ']';
  return s;
}

ClassLatency summarize_latencies(std::vector<double> v) {
  ClassLatency c;
  c.count = v.size();
  if (v.empty()) return c;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  c.p50_ms = at(0.50);
  c.p99_ms = at(0.99);
  c.max_ms = v.back();
  double sum = 0;
  for (double x : v) sum += x;
  c.mean_ms = sum / static_cast<double>(v.size());
  return c;
}

}  // namespace

const char* slo_name(SloClass c) {
  return c == SloClass::kLatency ? "latency" : "throughput";
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kShed:
      return "shed";
    case Outcome::kRejected:
      return "rejected";
  }
  return "?";
}

ServerConfig ServerConfig::from_env(ServerConfig base) {
  base.devices = env_size("CUSFFT_SERVE_DEVICES", base.devices);
  base.nodes = env_size("CUSFFT_SERVE_NODES", base.nodes);
  base.max_batch = env_size("CUSFFT_SERVE_MAX_BATCH", base.max_batch);
  base.max_wait_throughput_ms =
      env_ms("CUSFFT_SERVE_MAX_WAIT_MS", base.max_wait_throughput_ms);
  base.max_wait_latency_ms =
      env_ms("CUSFFT_SERVE_MAX_WAIT_LAT_MS", base.max_wait_latency_ms);
  base.tenant_queue_depth =
      env_size("CUSFFT_SERVE_QUEUE_DEPTH", base.tenant_queue_depth);
  base.validate();
  return base;
}

void ServerConfig::validate() const {
  if (devices < 1)
    throw std::invalid_argument("ServerConfig: devices must be >= 1");
  if (nodes < 1)
    throw std::invalid_argument("ServerConfig: nodes must be >= 1");
  if (max_batch < 1)
    throw std::invalid_argument("ServerConfig: max_batch must be >= 1");
  if (tenant_queue_depth < 1)
    throw std::invalid_argument(
        "ServerConfig: tenant_queue_depth must be >= 1");
  if (!std::isfinite(max_wait_latency_ms) || max_wait_latency_ms < 0)
    throw std::invalid_argument(
        "ServerConfig: max_wait_latency_ms must be finite and >= 0");
  if (!std::isfinite(max_wait_throughput_ms) || max_wait_throughput_ms < 0)
    throw std::invalid_argument(
        "ServerConfig: max_wait_throughput_ms must be finite and >= 0");
}

void GpuServeStats::to_metrics(cusim::MetricsRegistry& reg) const {
  reg.gauge("cusfft_serve_qps").set(sustained_qps);
  reg.gauge("cusfft_serve_queue_depth_max")
      .set_max(static_cast<double>(max_queue_depth));
  reg.gauge("cusfft_serve_batch_fill").set(mean_batch_fill);
  reg.gauge("cusfft_serve_virtual_ms").set(virtual_ms);
}

struct Server::Impl {
  ServerConfig cfg;

  mutable std::mutex mu;
  std::condition_variable cv_batcher;  // batcher wakeups (threaded mode)
  std::condition_variable cv_done;     // wait(id) wakeups
  bool running = false;
  bool stopping = false;
  std::thread batcher;

  double now = 0;          // virtual clock (ms)
  double device_free = 0;  // fleet free time on the virtual clock
  u64 next_id = 1;
  std::size_t batch_seq = 0;
  std::size_t executed = 0;  // signals launched across all batches

  struct Pend {
    u64 id = 0;
    std::string tenant;
    sfft::Params params;
    cvec x;
    SloClass slo = SloClass::kThroughput;
    double arrival = 0;
    double deadline_abs = kInf;
  };
  std::deque<Pend> pending;                  // global FIFO
  std::map<std::string, std::size_t> depth;  // per-tenant pending count
  std::map<u64, Response> terminal;
  std::size_t max_depth = 0;

  std::string trace;                   // full schedule trace (with times)
  std::vector<std::string> decisions;  // float-free golden lines

  std::vector<double> lat_latency;     // completed modeled latencies
  std::vector<double> lat_throughput;

  std::size_t n_submitted = 0, n_completed = 0, n_shed = 0, n_rejected = 0;

  // Cluster, built lazily at the first batch launch. Only the thread that
  // launches batches touches it (the caller in virtual mode, the batcher
  // thread in threaded mode).
  std::unique_ptr<cusim::Cluster> cluster;
  std::unique_ptr<gpu::ClusterPlan> cplan;

  // Cached handles into the global registry (hot-path contract).
  cusim::Counter& m_req_lat;
  cusim::Counter& m_req_thr;
  cusim::Counter& m_completed;
  cusim::Counter& m_shed;
  cusim::Counter& m_rejected;
  cusim::Counter& m_batches;
  cusim::Histogram& m_batch_size;
  cusim::Histogram& m_lat_lat;
  cusim::Histogram& m_lat_thr;
  cusim::Gauge& m_depth_max;

  explicit Impl(ServerConfig c)
      : cfg(std::move(c)),
        m_req_lat(cusim::MetricsRegistry::global().counter(
            cusim::MetricsRegistry::label("cusfft_serve_requests_total",
                                          "class", "latency"))),
        m_req_thr(cusim::MetricsRegistry::global().counter(
            cusim::MetricsRegistry::label("cusfft_serve_requests_total",
                                          "class", "throughput"))),
        m_completed(cusim::MetricsRegistry::global().counter(
            "cusfft_serve_completed_total")),
        m_shed(cusim::MetricsRegistry::global().counter(
            "cusfft_serve_shed_total")),
        m_rejected(cusim::MetricsRegistry::global().counter(
            "cusfft_serve_rejected_total")),
        m_batches(cusim::MetricsRegistry::global().counter(
            "cusfft_serve_batches_total")),
        m_batch_size(cusim::MetricsRegistry::global().histogram(
            "cusfft_serve_batch_size")),
        m_lat_lat(cusim::MetricsRegistry::global().histogram(
            cusim::MetricsRegistry::label("cusfft_serve_latency_ms", "class",
                                          "latency"))),
        m_lat_thr(cusim::MetricsRegistry::global().histogram(
            cusim::MetricsRegistry::label("cusfft_serve_latency_ms", "class",
                                          "throughput"))),
        m_depth_max(cusim::MetricsRegistry::global().gauge(
            "cusfft_serve_queue_depth_max")) {
    cfg.validate();
  }

  double wait_of(SloClass c) const {
    return c == SloClass::kLatency ? cfg.max_wait_latency_ms
                                   : cfg.max_wait_throughput_ms;
  }

  // ---- admission (lock held) ------------------------------------------

  u64 admit(double arrival, Request&& r) {
    r.params.validate();
    if (r.x.size() != r.params.n)
      throw std::invalid_argument("serve::Request: x.size() != params.n");
    if (std::isnan(r.deadline_ms) || r.deadline_ms < 0)
      throw std::invalid_argument(
          "serve::Request: deadline_ms must be >= 0 (or +inf for none)");
    const u64 id = next_id++;
    ++n_submitted;
    (r.slo == SloClass::kLatency ? m_req_lat : m_req_thr).inc();
    trace += "submit id=" + std::to_string(id) + " tenant=" + r.tenant +
             " class=" + slo_name(r.slo) + " t=" + fmt_ms(arrival) + "\n";
    std::size_t& d = depth[r.tenant];
    if (d >= cfg.tenant_queue_depth) {
      ++n_rejected;
      m_rejected.inc();
      Response resp;
      resp.id = id;
      resp.tenant = r.tenant;
      resp.slo = r.slo;
      resp.outcome = Outcome::kRejected;
      resp.arrival_ms = arrival;
      resp.done_ms = arrival;
      trace += "reject id=" + std::to_string(id) + " tenant=" + r.tenant +
               " t=" + fmt_ms(arrival) + " depth=" + std::to_string(d) + "\n";
      decisions.push_back("reject id=" + std::to_string(id) +
                          " tenant=" + r.tenant);
      terminal.emplace(id, std::move(resp));
      cv_done.notify_all();
      return id;
    }
    ++d;
    Pend p;
    p.id = id;
    p.tenant = std::move(r.tenant);
    p.params = r.params;
    p.x = std::move(r.x);
    p.slo = r.slo;
    p.arrival = arrival;
    p.deadline_abs = arrival + r.deadline_ms;  // inf-safe
    pending.push_back(std::move(p));
    max_depth = std::max(max_depth, pending.size());
    m_depth_max.set_max(static_cast<double>(pending.size()));
    return id;
  }

  // ---- batch close / formation (lock held) ----------------------------

  struct Close {
    double t = kInf;
    const char* reason = "wait";
  };

  // Earliest virtual time the head batch can launch, and why. pending
  // must be non-empty. The wait trigger takes the minimum SLO window over
  // the requests that would ride along — a latency-class arrival preempts
  // the throughput accumulation window.
  Close next_close() const {
    const double start = std::max(device_free, pending.front().arrival);
    Close c;
    if (pending.size() >= cfg.max_batch) {
      c.t = std::max(start, pending[cfg.max_batch - 1].arrival);
      c.reason = "size";
    }
    double w = kInf;
    const std::size_t lim = std::min(pending.size(), cfg.max_batch);
    for (std::size_t i = 0; i < lim; ++i)
      w = std::min(w, pending[i].arrival + wait_of(pending[i].slo));
    w = std::max(start, w);
    if (w < c.t) {
      c.t = w;
      c.reason = "wait";
    }
    return c;
  }

  struct Batch {
    double L = 0;
    const char* reason = "";
    std::vector<Pend> run;
    std::vector<u64> shed_ids;
  };

  void resolve_shed(const Pend& p, double t, const char* why) {
    ++n_shed;
    m_shed.inc();
    Response resp;
    resp.id = p.id;
    resp.tenant = p.tenant;
    resp.slo = p.slo;
    resp.outcome = Outcome::kShed;
    resp.arrival_ms = p.arrival;
    resp.done_ms = t;
    trace += "shed id=" + std::to_string(p.id) + " tenant=" + p.tenant +
             " t=" + fmt_ms(t) + " reason=" + why + "\n";
    terminal.emplace(p.id, std::move(resp));
    cv_done.notify_all();
  }

  // Pops up to max_batch requests for a launch at virtual time L,
  // shedding the ones whose deadline already expired (they do not count
  // toward the batch size — expired work never reaches the device).
  Batch form(double L, const char* reason) {
    Batch b;
    b.L = L;
    b.reason = reason;
    while (!pending.empty() && b.run.size() < cfg.max_batch) {
      Pend p = std::move(pending.front());
      pending.pop_front();
      --depth[p.tenant];
      if (L > p.deadline_abs) {
        resolve_shed(p, L, "deadline");
        b.shed_ids.push_back(p.id);
      } else {
        b.run.push_back(std::move(p));
      }
    }
    return b;
  }

  void note_close(const Batch& b, double model_ms) {
    std::vector<u64> ids;
    ids.reserve(b.run.size());
    for (const Pend& p : b.run) ids.push_back(p.id);
    trace += "close seq=" +
             (b.run.empty() ? std::string("-")
                            : std::to_string(batch_seq - 1)) +
             " t=" + fmt_ms(b.L) + " reason=" + b.reason +
             " n=" + std::to_string(b.run.size()) + " ids=" + fmt_ids(ids) +
             " model_ms=" + fmt_ms(model_ms) + "\n";
    decisions.push_back(std::string("close reason=") + b.reason +
                        " ids=" + fmt_ids(ids) +
                        " shed=" + fmt_ids(b.shed_ids));
  }

  // ---- execution ------------------------------------------------------

  // Device-side work only — reads b.run, never queue state, so the
  // threaded path may call it with the lock released.
  gpu::GpuFleetStats run_batch(const Batch& b,
                               std::vector<SparseSpectrum>& out) {
    if (!cplan) {  // shaped by the first batch's first request
      cluster = std::make_unique<cusim::Cluster>(cfg.nodes, cfg.devices);
      cplan = std::make_unique<gpu::ClusterPlan>(
          *cluster, b.run.front().params, cfg.opts);
    }
    std::vector<gpu::MixedSignal> mix;
    mix.reserve(b.run.size());
    for (const Pend& p : b.run)
      mix.push_back({std::span<const cplx>(p.x), p.params});
    gpu::GpuFleetStats fs;
    out = cplan->execute_mixed(mix, &fs, gpu::BatchMode::kAuto);
    return fs;
  }

  // (lock held) Accounts a launched batch: per-request completion times
  // from the modeled per-signal windows, fleet clock advance by the
  // merged makespan.
  void resolve_batch(Batch& b, std::vector<SparseSpectrum>& out,
                     const gpu::GpuFleetStats& fs) {
    const std::size_t seq = batch_seq++;
    executed += b.run.size();
    m_batches.inc();
    m_batch_size.observe(static_cast<double>(b.run.size()));
    note_close(b, fs.model_ms);
    for (std::size_t i = 0; i < b.run.size(); ++i) {
      Pend& p = b.run[i];
      const double done_t = b.L + fs.per_signal[i].end_ms;
      const double lat = done_t - p.arrival;
      ++n_completed;
      m_completed.inc();
      (p.slo == SloClass::kLatency ? lat_latency : lat_throughput)
          .push_back(lat);
      (p.slo == SloClass::kLatency ? m_lat_lat : m_lat_thr).observe(lat);
      Response resp;
      resp.id = p.id;
      resp.tenant = std::move(p.tenant);
      resp.slo = p.slo;
      resp.outcome = Outcome::kCompleted;
      resp.spectrum = std::move(out[i]);
      resp.arrival_ms = p.arrival;
      resp.done_ms = done_t;
      resp.latency_ms = lat;
      resp.batch_seq = seq;
      trace += "done id=" + std::to_string(p.id) + " t=" + fmt_ms(done_t) +
               " latency_ms=" + fmt_ms(lat) + " batch=" +
               std::to_string(seq) + "\n";
      terminal.emplace(p.id, std::move(resp));
    }
    device_free = b.L + fs.model_ms;
    now = std::max(now, b.L);
    trace += "free t=" + fmt_ms(device_free) + "\n";
    cv_done.notify_all();
  }

  // (lock held; virtual mode) Launches every batch that closes up to t.
  void advance_to(double t) {
    while (!pending.empty()) {
      const Close c = next_close();
      if (c.t > t) break;
      launch_inline(c.t, c.reason);
    }
    now = std::max(now, t);
  }

  void launch_inline(double L, const char* reason) {
    Batch b = form(L, reason);
    if (b.run.empty()) {
      note_close(b, 0.0);
      now = std::max(now, L);
      return;
    }
    std::vector<SparseSpectrum> out;
    const gpu::GpuFleetStats fs = run_batch(b, out);
    resolve_batch(b, out, fs);
  }

  void drain_all() {
    while (!pending.empty()) {
      const std::size_t lim = std::min(pending.size(), cfg.max_batch);
      const double L = std::max(device_free, pending[lim - 1].arrival);
      const char* reason =
          pending.size() >= cfg.max_batch ? "size" : "drain";
      launch_inline(L, reason);
    }
  }

  // ---- threaded batcher -----------------------------------------------

  void batcher_main() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      if (pending.empty()) {
        if (stopping) break;
        cv_batcher.wait(lk, [&] { return stopping || !pending.empty(); });
        continue;
      }
      if (!stopping && pending.size() < cfg.max_batch) {
        // Wall-clock pacing: give the batch its shortest pending SLO
        // window to fill up. New arrivals re-check the predicate and keep
        // waiting the remaining window (they ride along for free —
        // continuous batching); hitting max_batch or stop() closes early.
        double wait_ms = kInf;
        const std::size_t lim = std::min(pending.size(), cfg.max_batch);
        for (std::size_t i = 0; i < lim; ++i)
          wait_ms = std::min(wait_ms, wait_of(pending[i].slo));
        if (wait_ms > 0) {
          cv_batcher.wait_for(
              lk, std::chrono::duration<double, std::milli>(wait_ms), [&] {
                return stopping || pending.size() >= cfg.max_batch;
              });
        }
        if (pending.empty()) continue;  // everything cancelled meanwhile
      }
      // Virtual launch time: the deterministic close bound, except that a
      // stop()-flush prices like drain (launch as soon as the device
      // frees).
      const char* reason;
      double L;
      if (pending.size() >= cfg.max_batch) {
        reason = "size";
        L = std::max(device_free, pending[cfg.max_batch - 1].arrival);
      } else if (stopping) {
        reason = "drain";
        L = std::max(device_free, pending[pending.size() - 1].arrival);
      } else {
        const Close c = next_close();
        reason = c.reason;
        L = c.t;
      }
      Batch b = form(L, reason);
      if (b.run.empty()) {
        note_close(b, 0.0);
        now = std::max(now, L);
        continue;
      }
      lk.unlock();  // submissions stay open while the device runs
      std::vector<SparseSpectrum> out;
      const gpu::GpuFleetStats fs = run_batch(b, out);
      lk.lock();
      resolve_batch(b, out, fs);
    }
  }

  GpuServeStats stats_locked() const {
    GpuServeStats s;
    s.submitted = n_submitted;
    s.completed = n_completed;
    s.shed = n_shed;
    s.rejected = n_rejected;
    s.batches = batch_seq;
    s.max_queue_depth = max_depth;
    s.virtual_ms = std::max(now, device_free);
    s.sustained_qps =
        s.virtual_ms > 0
            ? static_cast<double>(n_completed) / (s.virtual_ms / 1000.0)
            : 0.0;
    s.mean_batch_fill =
        batch_seq > 0 ? static_cast<double>(executed) /
                            static_cast<double>(batch_seq * cfg.max_batch)
                      : 0.0;
    s.latency = summarize_latencies(lat_latency);
    s.throughput = summarize_latencies(lat_throughput);
    return s;
  }

  void require_virtual() const {
    if (running)
      throw std::logic_error(
          "serve::Server: virtual-clock calls (submit_at/advance/drain) are "
          "illegal while the batcher thread runs; stop() first");
  }
};

Server::Server(ServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Server::~Server() {
  if (impl_) stop();
}

const ServerConfig& Server::config() const { return impl_->cfg; }

u64 Server::submit_at(double t_ms, Request r) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->require_virtual();
  const double arrival = std::max(t_ms, impl_->now);
  impl_->advance_to(arrival);
  return impl_->admit(arrival, std::move(r));
}

void Server::advance(double t_ms) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->require_virtual();
  if (t_ms < impl_->now) return;
  impl_->advance_to(t_ms);
}

void Server::drain() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->require_virtual();
  impl_->drain_all();
}

void Server::start() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (impl_->running) return;
  impl_->running = true;
  impl_->stopping = false;
  impl_->batcher = std::thread([this] { impl_->batcher_main(); });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (!impl_->running) return;
    impl_->stopping = true;
    impl_->cv_batcher.notify_all();
  }
  impl_->batcher.join();
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->running = false;
  impl_->stopping = false;
}

u64 Server::submit(Request r) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (!impl_->running)
    throw std::logic_error(
        "serve::Server::submit: batcher not running; start() first (or "
        "drive the virtual clock with submit_at)");
  const u64 id = impl_->admit(impl_->now, std::move(r));
  impl_->cv_batcher.notify_all();
  return id;
}

Response Server::wait(u64 id) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->cv_done.wait(lk,
                      [&] { return impl_->terminal.count(id) != 0; });
  return impl_->terminal.at(id);
}

bool Server::cancel(u64 id) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (auto it = impl_->pending.begin(); it != impl_->pending.end(); ++it) {
    if (it->id != id) continue;
    Impl::Pend p = std::move(*it);
    impl_->pending.erase(it);
    --impl_->depth[p.tenant];
    impl_->resolve_shed(p, impl_->now, "cancel");
    impl_->decisions.push_back("cancel id=" + std::to_string(id));
    impl_->cv_batcher.notify_all();
    return true;
  }
  return false;
}

bool Server::done(u64 id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->terminal.count(id) != 0;
}

Response Server::response(u64 id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto it = impl_->terminal.find(id);
  if (it != impl_->terminal.end()) return it->second;
  Response r;
  r.id = id;
  for (const Impl::Pend& p : impl_->pending) {
    if (p.id != id) continue;
    r.tenant = p.tenant;
    r.slo = p.slo;
    r.arrival_ms = p.arrival;
    break;
  }
  return r;  // Outcome::kPending
}

GpuServeStats Server::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->stats_locked();
}

std::string Server::schedule_trace() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->trace;
}

std::string Server::decision_trace() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::string out;
  for (const std::string& d : impl_->decisions) {
    out += d;
    out += '\n';
  }
  return out;
}

// ---- scripted traces ---------------------------------------------------

std::string Trace::to_text() const {
  std::string out = "# arrival_ms,tenant,n,k,class,deadline_ms\n";
  for (const TraceEvent& e : events) {
    out += fmt_ms(e.arrival_ms) + "," + e.tenant + "," +
           std::to_string(e.n) + "," + std::to_string(e.k) + "," +
           slo_name(e.slo) + "," + fmt_ms(e.deadline_ms) + "\n";
  }
  return out;
}

namespace {

[[noreturn]] void bad_line(std::size_t lineno, const std::string& why) {
  throw std::invalid_argument("trace line " + std::to_string(lineno) + ": " +
                              why);
}

double parse_trace_ms(const std::string& field, std::size_t lineno,
                      bool allow_inf) {
  if (allow_inf && field == "inf") return kInf;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (errno != 0 || end == field.c_str() || *end != '\0' ||
      !std::isfinite(v) || v < 0)
    bad_line(lineno, "bad milliseconds value \"" + field + "\"");
  return v;
}

std::size_t parse_trace_size(const std::string& field, std::size_t lineno) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (errno != 0 || end == field.c_str() || *end != '\0' || field[0] == '-' ||
      v == 0)
    bad_line(lineno, "bad positive integer \"" + field + "\"");
  return static_cast<std::size_t>(v);
}

}  // namespace

Trace Trace::parse(const std::string& text) {
  Trace t;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  double prev = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = line.find(',', pos);
      fields.push_back(line.substr(pos, comma - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (fields.size() != 6)
      bad_line(lineno, "expected 6 comma-separated fields, got " +
                           std::to_string(fields.size()));
    TraceEvent e;
    e.arrival_ms = parse_trace_ms(fields[0], lineno, /*allow_inf=*/false);
    e.tenant = fields[1];
    if (e.tenant.empty()) bad_line(lineno, "empty tenant");
    e.n = parse_trace_size(fields[2], lineno);
    e.k = parse_trace_size(fields[3], lineno);
    if (fields[4] == "latency")
      e.slo = SloClass::kLatency;
    else if (fields[4] == "throughput")
      e.slo = SloClass::kThroughput;
    else
      bad_line(lineno, "bad class \"" + fields[4] +
                           "\" (want latency|throughput)");
    e.deadline_ms = parse_trace_ms(fields[5], lineno, /*allow_inf=*/true);
    if (e.arrival_ms < prev)
      bad_line(lineno, "arrivals must be nondecreasing");
    prev = e.arrival_ms;
    t.events.push_back(std::move(e));
  }
  return t;
}

Trace canned_trace(std::size_t n_big, std::size_t k_big, u64 seed) {
  Trace t;
  const std::size_t n_small = std::max<std::size_t>(256, n_big / 4);
  const std::size_t k_small =
      std::min(std::max<std::size_t>(4, k_big / 4), n_small / 8);
  Rng rng(seed ^ 0x5e77e5ULL);
  double now = 0;
  const auto push = [&](double at, const char* tenant, std::size_t n,
                        std::size_t k, SloClass slo, double dl) {
    TraceEvent e;
    e.arrival_ms = at;
    e.tenant = tenant;
    e.n = n;
    e.k = k;
    e.slo = slo;
    e.deadline_ms = dl;
    t.events.push_back(std::move(e));
  };
  // Three tenants: "alpha" sends steady latency-class full-size requests,
  // "bravo" trickles throughput-class quarter-size work behind each one,
  // and every fourth step "charlie" bursts six submissions at once — the
  // burst overruns small admission quotas (rejects) and carries two tight
  // deadlines (sheds under queueing).
  for (int step = 0; step < 12; ++step) {
    now += 1.0 + 2.0 * rng.next_double();
    push(now, "alpha", n_big, k_big, SloClass::kLatency, kInf);
    for (int j = 1; j <= 3; ++j)
      push(now + 0.05 * j, "bravo", n_small, k_small, SloClass::kThroughput,
           kInf);
    if (step % 4 == 3) {
      // The deadlines ride on the first two burst members: the tail of
      // the burst is what a depth-4 quota rejects, and a rejected
      // request can never be shed.
      const double burst = now + 0.2;
      for (int j = 0; j < 6; ++j)
        push(burst, "charlie", n_small, k_small, SloClass::kThroughput,
             j < 2 ? 0.25 : kInf);
    }
  }
  return t;
}

sfft::Params trace_params(const TraceEvent& e, u64 signal_seed) {
  sfft::Params p;
  p.n = e.n;
  p.k = e.k;
  p.seed = signal_seed;
  return p;
}

cvec trace_signal(const TraceEvent& e, u64 signal_seed, std::size_t index) {
  Rng rng(signal_seed ^ (0x9E3779B97F4A7C15ULL * (index + 1)) ^
          (static_cast<u64>(e.n) << 20) ^ static_cast<u64>(e.k));
  return signal::make_sparse_signal(e.n, e.k, rng).x;
}

std::vector<u64> replay(Server& s, const Trace& t, u64 signal_seed) {
  std::vector<u64> ids;
  ids.reserve(t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const TraceEvent& e = t.events[i];
    Request r;
    r.tenant = e.tenant;
    r.params = trace_params(e, signal_seed);
    r.x = trace_signal(e, signal_seed, i);
    r.slo = e.slo;
    r.deadline_ms = e.deadline_ms;
    ids.push_back(s.submit_at(e.arrival_ms, std::move(r)));
  }
  s.drain();
  return ids;
}

}  // namespace cusfft::serve
