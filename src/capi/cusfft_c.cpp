#include "capi/cusfft.h"

#include <algorithm>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include <cstring>

#include "core/spectrum.hpp"
#include "core/thread_pool.hpp"
#include "core/types.hpp"
#include "cusfft/autopick.hpp"
#include "cusfft/cluster_plan.hpp"
#include "cusfft/plan.hpp"
#include "cusim/cluster.hpp"
#include "cusfft/server.hpp"
#include "cusim/device.hpp"
#include "cusim/metrics.hpp"
#include "cusim/profiler.hpp"
#include "psfft/psfft.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"

/// Owns whichever backend the plan was created for. The GPU backends own
/// their simulated device, or their cluster of nodes x devices
/// (cusfft_set_node_count x cusfft_set_device_count); PsFFT shares the
/// process-wide thread pool.
struct cusfft_plan_t {
  cusfft::sfft::Params params;
  cusfft_backend backend = CUSFFT_BACKEND_SERIAL;
  int batch_pipeline = 1;  // cusfft_set_batch_pipeline; GPU batches only
  size_t device_count = 1;  // cusfft_set_device_count; GPU backends only
  size_t node_count = 1;    // cusfft_set_node_count; GPU backends only
  cusfft::cusim::PcieStaging staging;  // cusfft_set_pcie_staging

  std::unique_ptr<cusfft::sfft::SerialPlan> serial;
  std::unique_ptr<cusfft::sfft::FfastPlan> ffast;  // CPU backends, algo FFAST
  std::unique_ptr<cusfft::psfft::PsfftPlan> psfft;
  std::unique_ptr<cusfft::cusim::Device> device;
  std::unique_ptr<cusfft::gpu::GpuPlan> gpu;
  // More than one device or node: one ClusterPlan over nodes x devices
  // (a single node is the plain device fleet).
  std::unique_ptr<cusfft::cusim::Cluster> cluster;
  std::unique_ptr<cusfft::gpu::ClusterPlan> cplan;

  /// Capture profile of the most recent GPU execute/execute_many (null
  /// until then, and for CPU backends).
  std::unique_ptr<cusfft::cusim::CaptureProfile> profile;

  /// Fleet stats of the most recent successful GPU execute/execute_many
  /// (a single device reports devices == 1, imbalance 1.0, zero stalls).
  /// Runs fill a local stats object, so a run that throws leaves these
  /// as they were.
  std::unique_ptr<cusfft::gpu::GpuFleetStats> fleet;

  /// Retains the open capture's profile after a GPU run — the merged
  /// fleet profile (one trace track group per device) under sharding.
  void collect_profile() {
    profile = std::make_unique<cusfft::cusim::CaptureProfile>(
        cplan != nullptr ? cluster->end_capture() : device->end_capture());
  }

  /// Degrades a single-device batch's stats to the fleet shape so
  /// cusfft_get_fleet_stats works for any device count.
  void fleet_from_single(double model_ms, size_t signals) {
    auto st = std::make_unique<cusfft::gpu::GpuFleetStats>();
    st->model_ms = model_ms;
    st->signals = signals;
    st->devices = 1;
    cusfft::gpu::GpuDeviceShardStats ds;
    ds.device = device->spec().name;
    ds.signals = signals;
    ds.model_ms = model_ms;
    ds.solo_ms = model_ms;
    ds.utilization = 1.0;
    st->per_device.push_back(std::move(ds));
    fleet = std::move(st);
  }

  cusfft_status rebuild() {
    try {
      serial.reset();
      ffast.reset();
      psfft.reset();
      gpu.reset();
      cplan.reset();
      cluster.reset();
      device.reset();
      profile.reset();
      fleet.reset();
      switch (backend) {
        case CUSFFT_BACKEND_SERIAL:
        case CUSFFT_BACKEND_PSFFT: {
          // CPU backends honor the CUSFFT_ALGO override too (re-read on
          // every rebuild, never latched). kAuto has no device spec to
          // price against and falls back to the default bucket hashing;
          // FFAST runs the reference CPU implementation either way.
          auto algo = params.algo;
          if (const auto ov = cusfft::gpu::algo_override_from_env())
            algo = *ov;
          if (algo == cusfft::sfft::Algorithm::kFfast) {
            auto p = params;
            p.algo = cusfft::sfft::Algorithm::kFfast;
            ffast = std::make_unique<cusfft::sfft::FfastPlan>(p);
          } else if (backend == CUSFFT_BACKEND_SERIAL) {
            serial = std::make_unique<cusfft::sfft::SerialPlan>(params);
          } else {
            psfft = std::make_unique<cusfft::psfft::PsfftPlan>(
                params, cusfft::ThreadPool::global());
          }
          break;
        }
        case CUSFFT_BACKEND_GPU_BASELINE:
        case CUSFFT_BACKEND_GPU_OPTIMIZED: {
          const auto opts = backend == CUSFFT_BACKEND_GPU_OPTIMIZED
                                ? cusfft::gpu::Options::optimized()
                                : cusfft::gpu::Options::baseline();
          if (device_count > 1 || node_count > 1) {
            cluster = std::make_unique<cusfft::cusim::Cluster>(node_count,
                                                               device_count);
            cluster->set_staging(staging);
            cplan = std::make_unique<cusfft::gpu::ClusterPlan>(
                *cluster, params, opts);
          } else {
            device = std::make_unique<cusfft::cusim::Device>();
            // resolve_algorithm applies the CUSFFT_ALGO override and
            // sends kAuto through the picker (GpuPlan itself refuses
            // unresolved kAuto); malformed env values throw
            // invalid_argument -> CUSFFT_INVALID_ARGUMENT below. The
            // cluster path instead resolves per signal inside
            // execute_mixed.
            auto resolved = params;
            resolved.algo = cusfft::gpu::resolve_algorithm(
                params, device->spec(), opts);
            gpu = std::make_unique<cusfft::gpu::GpuPlan>(*device, resolved,
                                                         opts);
          }
          break;
        }
        default:
          return CUSFFT_INVALID_ARGUMENT;
      }
    } catch (const std::invalid_argument&) {
      return CUSFFT_INVALID_ARGUMENT;
    } catch (const std::bad_alloc&) {
      return CUSFFT_ALLOC_FAILED;
    } catch (const std::runtime_error&) {
      return CUSFFT_ALLOC_FAILED;  // device-memory budget exceeded
    } catch (...) {
      return CUSFFT_INTERNAL_ERROR;
    }
    return CUSFFT_SUCCESS;
  }
};

namespace {

/// True when C enum argument `e` holds one of the values 0..last. A C
/// caller may pass any int for an enum parameter, and loading an
/// out-of-range value through the C++ enum type is undefined (UBSan's
/// -fsanitize=enum traps it), so the argument is read as its underlying
/// integer — through its object representation — before any store,
/// comparison or conversion. Every enum in cusfft.h numbers from 0.
template <typename E>
bool valid_enum(const E& e, E last) {
  using U = std::underlying_type_t<E>;
  U v;
  std::memcpy(&v, &e, sizeof v);
  if constexpr (std::is_signed_v<U>) {
    if (v < 0) return false;
  }
  return v <= static_cast<U>(last);
}

}  // namespace

extern "C" {

cusfft_status cusfft_plan(cusfft_handle* out, size_t n, size_t k,
                          cusfft_backend backend) {
  if (out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  *out = nullptr;
  if (!valid_enum(backend, CUSFFT_BACKEND_GPU_OPTIMIZED))
    return CUSFFT_INVALID_ARGUMENT;
  auto plan = std::make_unique<cusfft_plan_t>();
  plan->params.n = n;
  plan->params.k = k;
  plan->backend = backend;
  const cusfft_status st = plan->rebuild();
  if (st != CUSFFT_SUCCESS) return st;
  *out = plan.release();
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_seed(cusfft_handle h, uint64_t seed) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  h->params.seed = seed;
  return h->rebuild();
}

cusfft_status cusfft_set_algorithm(cusfft_handle h, cusfft_algorithm algo) {
  if (h == nullptr || !valid_enum(algo, CUSFFT_ALGO_AUTO))
    return CUSFFT_INVALID_ARGUMENT;
  switch (algo) {
    case CUSFFT_ALGO_CUSFFT:
      h->params.algo = cusfft::sfft::Algorithm::kCusfft;
      break;
    case CUSFFT_ALGO_FFAST:
      h->params.algo = cusfft::sfft::Algorithm::kFfast;
      break;
    case CUSFFT_ALGO_AUTO:
      h->params.algo = cusfft::sfft::Algorithm::kAuto;
      break;
    default:
      return CUSFFT_INVALID_ARGUMENT;
  }
  return h->rebuild();
}

cusfft_status cusfft_set_batch_pipeline(cusfft_handle h, int enable) {
  if (h == nullptr) return CUSFFT_INVALID_ARGUMENT;
  h->batch_pipeline = enable;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_execute(cusfft_handle h, const double* input,
                             uint64_t* locations, double* values,
                             size_t* count) {
  if (h == nullptr || input == nullptr || locations == nullptr ||
      values == nullptr || count == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    const std::span<const cusfft::cplx> x(
        reinterpret_cast<const cusfft::cplx*>(input), h->params.n);
    cusfft::SparseSpectrum s;
    switch (h->backend) {
      case CUSFFT_BACKEND_SERIAL:
        s = h->ffast != nullptr ? h->ffast->execute(x)
                                : h->serial->execute(x);
        break;
      case CUSFFT_BACKEND_PSFFT:
        s = h->ffast != nullptr ? h->ffast->execute(x)
                                : h->psfft->execute(x);
        break;
      default:
        if (h->cplan != nullptr) {
          // Route the single signal through the cluster (it lands on the
          // cheapest device; the others idle in the merged timeline).
          const std::span<const cusfft::cplx> one[] = {x};
          auto st = std::make_unique<cusfft::gpu::GpuFleetStats>();
          const auto mode = h->batch_pipeline != 0
                                ? cusfft::gpu::BatchMode::kAuto
                                : cusfft::gpu::BatchMode::kSerialized;
          s = std::move(h->cplan->execute_many(one, st.get(), mode)[0]);
          h->fleet = std::move(st);
        } else {
          cusfft::gpu::GpuExecStats est;
          s = h->gpu->execute(x, &est);
          h->fleet_from_single(est.model_ms, 1);
        }
        h->collect_profile();
        break;
    }
    if (s.size() > *count) s = cusfft::trim_top_k(std::move(s), *count);
    for (size_t i = 0; i < s.size(); ++i) {
      locations[i] = s[i].loc;
      values[2 * i] = s[i].val.real();
      values[2 * i + 1] = s[i].val.imag();
    }
    *count = s.size();
  } catch (const std::invalid_argument&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_execute_many(cusfft_handle h, const double* inputs,
                                  size_t batch, size_t capacity,
                                  uint64_t* locations, double* values,
                                  size_t* counts) {
  if (h == nullptr || inputs == nullptr || locations == nullptr ||
      values == nullptr || counts == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    const size_t n = h->params.n;
    std::vector<std::span<const cusfft::cplx>> xs(batch);
    for (size_t i = 0; i < batch; ++i)
      xs[i] = std::span<const cusfft::cplx>(
          reinterpret_cast<const cusfft::cplx*>(inputs) + i * n, n);

    std::vector<cusfft::SparseSpectrum> results;
    switch (h->backend) {
      case CUSFFT_BACKEND_SERIAL:
        results.reserve(batch);
        for (const auto& x : xs)
          results.push_back(h->ffast != nullptr ? h->ffast->execute(x)
                                                : h->serial->execute(x));
        break;
      case CUSFFT_BACKEND_PSFFT:
        results.reserve(batch);
        for (const auto& x : xs)
          results.push_back(h->ffast != nullptr ? h->ffast->execute(x)
                                                : h->psfft->execute(x));
        break;
      default: {
        const auto mode = h->batch_pipeline != 0
                              ? cusfft::gpu::BatchMode::kAuto
                              : cusfft::gpu::BatchMode::kSerialized;
        if (h->cplan != nullptr) {
          auto st = std::make_unique<cusfft::gpu::GpuFleetStats>();
          results = h->cplan->execute_many(xs, st.get(), mode);
          h->fleet = std::move(st);
        } else {
          cusfft::gpu::GpuBatchStats bst;
          results = h->gpu->execute_many(xs, &bst, mode);
          h->fleet_from_single(bst.model_ms, batch);
        }
        h->collect_profile();
        break;
      }
    }

    for (size_t i = 0; i < batch; ++i) {
      cusfft::SparseSpectrum s = std::move(results[i]);
      if (s.size() > capacity) s = cusfft::trim_top_k(std::move(s), capacity);
      uint64_t* locs = locations + i * capacity;
      double* vals = values + 2 * i * capacity;
      for (size_t j = 0; j < s.size(); ++j) {
        locs[j] = s[j].loc;
        vals[2 * j] = s[j].val.real();
        vals[2 * j + 1] = s[j].val.imag();
      }
      counts[i] = s.size();
    }
  } catch (const std::invalid_argument&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_get_size(cusfft_handle h, size_t* n, size_t* k) {
  if (h == nullptr || n == nullptr || k == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  *n = h->params.n;
  *k = h->params.k;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_device_count(cusfft_handle h, size_t devices) {
  if (h == nullptr || devices == 0) return CUSFFT_INVALID_ARGUMENT;
  h->device_count = devices;
  return h->rebuild();
}

cusfft_status cusfft_set_node_count(cusfft_handle h, size_t nodes) {
  if (h == nullptr || nodes == 0) return CUSFFT_INVALID_ARGUMENT;
  h->node_count = nodes;
  return h->rebuild();
}

cusfft_status cusfft_get_cluster_stats(cusfft_handle h,
                                       cusfft_cluster_stats* out) {
  if (h == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->fleet == nullptr) return CUSFFT_INVALID_ARGUMENT;
  out->model_ms = h->fleet->model_ms;
  out->imbalance = h->fleet->imbalance;
  out->nic_stall_ms = h->fleet->nic_stall_ms;
  out->nic_queue_ms = h->fleet->nic_queue_ms;
  out->nic_bytes = h->fleet->nic_bytes;
  out->nic_transfers = h->fleet->nic_transfers;
  out->nodes = h->fleet->nodes;
  out->devices = h->fleet->devices;
  out->signals = h->fleet->signals;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_set_pcie_staging(cusfft_handle h,
                                      cusfft_pcie_staging policy,
                                      size_t max_inflight) {
  if (h == nullptr || !valid_enum(policy, CUSFFT_STAGING_MAX_INFLIGHT))
    return CUSFFT_INVALID_ARGUMENT;
  cusfft::cusim::PcieStaging s;
  switch (policy) {
    case CUSFFT_STAGING_UNLIMITED:
      s = cusfft::cusim::PcieStaging::Unlimited();
      break;
    case CUSFFT_STAGING_ROUND_ROBIN:
      s = cusfft::cusim::PcieStaging::RoundRobin();
      break;
    case CUSFFT_STAGING_MAX_INFLIGHT:
      if (max_inflight == 0) return CUSFFT_INVALID_ARGUMENT;
      s = cusfft::cusim::PcieStaging::MaxInflight(
          static_cast<unsigned>(max_inflight));
      break;
    default:
      return CUSFFT_INVALID_ARGUMENT;
  }
  h->staging = s;
  if (h->cluster != nullptr) h->cluster->set_staging(s);
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_get_fleet_stats(cusfft_handle h,
                                     cusfft_fleet_stats* out) {
  if (h == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->fleet == nullptr) return CUSFFT_INVALID_ARGUMENT;
  out->model_ms = h->fleet->model_ms;
  out->imbalance = h->fleet->imbalance;
  out->pcie_stall_ms = h->fleet->pcie_stall_ms;
  out->devices = h->fleet->devices;
  out->signals = h->fleet->signals;
  out->pcie_queue_ms = h->fleet->pcie_queue_ms;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_get_device_utilization(cusfft_handle h, size_t device,
                                            double* utilization) {
  if (h == nullptr || utilization == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  if (h->fleet == nullptr || device >= h->fleet->per_device.size())
    return CUSFFT_INVALID_ARGUMENT;
  *utilization = h->fleet->per_device[device].utilization;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_profile_json(cusfft_handle h, char* buf, size_t cap,
                                  size_t* len) {
  if (h == nullptr || len == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->profile == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    const std::string doc = h->profile->chrome_trace_json();
    *len = doc.size() + 1;  // incl. NUL
    if (buf == nullptr) return CUSFFT_SUCCESS;  // size query
    if (cap < *len) return CUSFFT_INVALID_ARGUMENT;
    std::memcpy(buf, doc.c_str(), *len);
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_profile_write(cusfft_handle h, const char* path) {
  if (h == nullptr || path == nullptr) return CUSFFT_INVALID_ARGUMENT;
  if (h->profile == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    if (!h->profile->write(path)) return CUSFFT_INTERNAL_ERROR;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

namespace {

/// Shared buf/cap/len protocol of the snapshot calls (identical to
/// cusfft_profile_json).
cusfft_status copy_out(const std::string& doc, char* buf, size_t cap,
                       size_t* len) {
  *len = doc.size() + 1;  // incl. NUL
  if (buf == nullptr) return CUSFFT_SUCCESS;  // size query
  if (cap < *len) return CUSFFT_INVALID_ARGUMENT;
  std::memcpy(buf, doc.c_str(), *len);
  return CUSFFT_SUCCESS;
}

}  // namespace

cusfft_status cusfft_metrics_json(char* buf, size_t cap, size_t* len) {
  if (len == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    return copy_out(cusfft::cusim::MetricsRegistry::global().expose_json(),
                    buf, cap, len);
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
}

cusfft_status cusfft_metrics_text(char* buf, size_t cap, size_t* len) {
  if (len == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    return copy_out(cusfft::cusim::MetricsRegistry::global().expose_text(),
                    buf, cap, len);
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
}

cusfft_status cusfft_metrics_write(const char* path,
                                   cusfft_metrics_format format) {
  if (path == nullptr || !valid_enum(format, CUSFFT_METRICS_PROMETHEUS))
    return CUSFFT_INVALID_ARGUMENT;
  try {
    auto& reg = cusfft::cusim::MetricsRegistry::global();
    const std::string doc = format == CUSFFT_METRICS_JSON
                                ? reg.expose_json()
                                : reg.expose_text();
    std::FILE* f = std::fopen(path, "wb");
    if (f == nullptr) return CUSFFT_INTERNAL_ERROR;
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    const bool closed = std::fclose(f) == 0;
    return ok && closed ? CUSFFT_SUCCESS : CUSFFT_INTERNAL_ERROR;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
}

cusfft_status cusfft_metrics_reset(void) {
  try {
    cusfft::cusim::MetricsRegistry::global().reset();
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

}  // extern "C"

/// Owns the serving tier behind the cusfft_server handle (the Server is
/// neither copyable nor movable, so the handle constructs it in place).
struct cusfft_server_t {
  cusfft::serve::Server impl;
  explicit cusfft_server_t(const cusfft::serve::ServerConfig& c) : impl(c) {}
};

extern "C" {

cusfft_status cusfft_server_config_default(cusfft_server_config* out) {
  if (out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    const cusfft::serve::ServerConfig cfg =
        cusfft::serve::ServerConfig::from_env();
    out->devices = cfg.devices;
    out->max_batch = cfg.max_batch;
    out->tenant_queue_depth = cfg.tenant_queue_depth;
    out->max_wait_latency_ms = cfg.max_wait_latency_ms;
    out->max_wait_throughput_ms = cfg.max_wait_throughput_ms;
  } catch (const std::invalid_argument&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_create(cusfft_server* out,
                                   const cusfft_server_config* cfg) {
  if (out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  *out = nullptr;
  try {
    cusfft::serve::ServerConfig c;
    if (cfg != nullptr) {
      c.devices = cfg->devices;
      c.max_batch = cfg->max_batch;
      c.tenant_queue_depth = cfg->tenant_queue_depth;
      c.max_wait_latency_ms = cfg->max_wait_latency_ms;
      c.max_wait_throughput_ms = cfg->max_wait_throughput_ms;
    } else {
      c = cusfft::serve::ServerConfig::from_env();
    }
    *out = new cusfft_server_t(c);
  } catch (const std::invalid_argument&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (const std::bad_alloc&) {
    return CUSFFT_ALLOC_FAILED;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

namespace {

cusfft::serve::Server* unwrap(cusfft_server s) { return &s->impl; }

}  // namespace

cusfft_status cusfft_server_submit(cusfft_server s, const char* tenant,
                                   double arrival_ms, size_t n, size_t k,
                                   cusfft_slo_class slo, double deadline_ms,
                                   const double* input,
                                   uint64_t* request_id) {
  if (s == nullptr || tenant == nullptr || input == nullptr ||
      request_id == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  if (!valid_enum(slo, CUSFFT_SLO_THROUGHPUT)) return CUSFFT_INVALID_ARGUMENT;
  try {
    cusfft::serve::Request r;
    r.tenant = tenant;
    r.params.n = n;
    r.params.k = k;
    const auto* x = reinterpret_cast<const cusfft::cplx*>(input);
    r.x.assign(x, x + n);
    r.slo = slo == CUSFFT_SLO_LATENCY
                ? cusfft::serve::SloClass::kLatency
                : cusfft::serve::SloClass::kThroughput;
    if (deadline_ms > 0) r.deadline_ms = deadline_ms;
    *request_id = unwrap(s)->submit_at(arrival_ms, std::move(r));
  } catch (const std::invalid_argument&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (const std::logic_error&) {
    return CUSFFT_INVALID_ARGUMENT;
  } catch (const std::bad_alloc&) {
    return CUSFFT_ALLOC_FAILED;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_advance(cusfft_server s, double t_ms) {
  if (s == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    unwrap(s)->advance(t_ms);
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_drain(cusfft_server s) {
  if (s == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    unwrap(s)->drain();
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_outcome(cusfft_server s, uint64_t request_id,
                                    cusfft_request_outcome* out) {
  if (s == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    switch (unwrap(s)->response(request_id).outcome) {
      case cusfft::serve::Outcome::kPending:
        *out = CUSFFT_REQUEST_PENDING;
        break;
      case cusfft::serve::Outcome::kCompleted:
        *out = CUSFFT_REQUEST_COMPLETED;
        break;
      case cusfft::serve::Outcome::kShed:
        *out = CUSFFT_REQUEST_SHED;
        break;
      case cusfft::serve::Outcome::kRejected:
        *out = CUSFFT_REQUEST_REJECTED;
        break;
    }
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_result(cusfft_server s, uint64_t request_id,
                                   uint64_t* locations, double* values,
                                   size_t* count, double* latency_ms) {
  if (s == nullptr || locations == nullptr || values == nullptr ||
      count == nullptr)
    return CUSFFT_INVALID_ARGUMENT;
  try {
    cusfft::serve::Response r = unwrap(s)->response(request_id);
    if (r.outcome != cusfft::serve::Outcome::kCompleted)
      return CUSFFT_INVALID_ARGUMENT;
    cusfft::SparseSpectrum spec = std::move(r.spectrum);
    if (spec.size() > *count)
      spec = cusfft::trim_top_k(std::move(spec), *count);
    for (size_t i = 0; i < spec.size(); ++i) {
      locations[i] = spec[i].loc;
      values[2 * i] = spec[i].val.real();
      values[2 * i + 1] = spec[i].val.imag();
    }
    *count = spec.size();
    if (latency_ms != nullptr) *latency_ms = r.latency_ms;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_stats(cusfft_server s, cusfft_serve_stats* out) {
  if (s == nullptr || out == nullptr) return CUSFFT_INVALID_ARGUMENT;
  try {
    const cusfft::serve::GpuServeStats st = unwrap(s)->stats();
    out->submitted = st.submitted;
    out->completed = st.completed;
    out->shed = st.shed;
    out->rejected = st.rejected;
    out->batches = st.batches;
    out->max_queue_depth = st.max_queue_depth;
    out->virtual_ms = st.virtual_ms;
    out->sustained_qps = st.sustained_qps;
    out->latency_p50_ms = st.latency.p50_ms;
    out->latency_p99_ms = st.latency.p99_ms;
    out->throughput_p50_ms = st.throughput.p50_ms;
    out->throughput_p99_ms = st.throughput.p99_ms;
  } catch (...) {
    return CUSFFT_INTERNAL_ERROR;
  }
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_server_destroy(cusfft_server s) {
  delete s;
  return CUSFFT_SUCCESS;
}

cusfft_status cusfft_destroy(cusfft_handle h) {
  delete h;
  return CUSFFT_SUCCESS;
}

const char* cusfft_status_string(cusfft_status s) {
  switch (s) {
    case CUSFFT_SUCCESS:
      return "success";
    case CUSFFT_INVALID_ARGUMENT:
      return "invalid argument";
    case CUSFFT_ALLOC_FAILED:
      return "allocation failed";
    case CUSFFT_INTERNAL_ERROR:
      return "internal error";
  }
  return "unknown status";
}

}  // extern "C"
