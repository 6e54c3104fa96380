// Tests for the C API façade: plan lifecycle, every backend, error paths,
// capacity truncation, and seed control — all through the extern "C"
// surface only.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "capi/cusfft.h"
#include "core/json_lite.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "signal/generate.hpp"

namespace {

using cusfft::cplx;
using cusfft::cvec;

struct CWorkload {
  cvec x;
  cvec oracle;
  std::size_t n, k;
};

CWorkload make_workload(std::size_t n, std::size_t k, cusfft::u64 seed) {
  cusfft::Rng rng(seed);
  auto sig = cusfft::signal::make_sparse_signal(n, k, rng);
  return {sig.x, cusfft::densify(sig.truth, n), n, k};
}

class CApiBackends : public ::testing::TestWithParam<cusfft_backend> {};

TEST_P(CApiBackends, PlanExecuteDestroyRecovers) {
  const auto w = make_workload(1 << 14, 12, 321);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, GetParam()), CUSFFT_SUCCESS);
  ASSERT_NE(h, nullptr);

  std::size_t n = 0, k = 0;
  EXPECT_EQ(cusfft_get_size(h, &n, &k), CUSFFT_SUCCESS);
  EXPECT_EQ(n, w.n);
  EXPECT_EQ(k, w.k);

  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * 4 * w.k);
  std::size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  EXPECT_GE(count, w.k);

  cusfft::SparseSpectrum got;
  for (std::size_t i = 0; i < count; ++i)
    got.push_back({locs[i], cplx{vals[2 * i], vals[2 * i + 1]}});
  EXPECT_DOUBLE_EQ(cusfft::location_recall(got, w.oracle, w.k), 1.0);
  EXPECT_LT(cusfft::l1_error_per_coeff(got, w.oracle, w.k), 1e-2);

  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CApiBackends,
    ::testing::Values(CUSFFT_BACKEND_SERIAL, CUSFFT_BACKEND_PSFFT,
                      CUSFFT_BACKEND_GPU_BASELINE,
                      CUSFFT_BACKEND_GPU_OPTIMIZED),
    [](const auto& info) {
      switch (info.param) {
        case CUSFFT_BACKEND_SERIAL: return "serial";
        case CUSFFT_BACKEND_PSFFT: return "psfft";
        case CUSFFT_BACKEND_GPU_BASELINE: return "gpu_base";
        default: return "gpu_opt";
      }
    });

TEST(CApi, ExecuteManyMatchesExecutePerSignal) {
  constexpr std::size_t kBatch = 3;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 13, k = 10;
  std::vector<double> inputs;  // back-to-back interleaved signals
  std::vector<CWorkload> ws;
  for (std::size_t i = 0; i < kBatch; ++i) {
    ws.push_back(make_workload(n, k, 900 + i));
    const double* d = reinterpret_cast<const double*>(ws[i].x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  std::vector<uint64_t> locs(kBatch * kCap);
  std::vector<double> vals(2 * kBatch * kCap);
  std::size_t counts[kBatch] = {};
  ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap, locs.data(),
                                vals.data(), counts),
            CUSFFT_SUCCESS);

  for (std::size_t i = 0; i < kBatch; ++i) {
    std::vector<uint64_t> one_locs(kCap);
    std::vector<double> one_vals(2 * kCap);
    std::size_t count = kCap;
    ASSERT_EQ(cusfft_execute(h,
                             reinterpret_cast<const double*>(ws[i].x.data()),
                             one_locs.data(), one_vals.data(), &count),
              CUSFFT_SUCCESS);
    ASSERT_EQ(counts[i], count) << "signal " << i;
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_EQ(locs[i * kCap + j], one_locs[j]);
      EXPECT_EQ(vals[2 * (i * kCap + j)], one_vals[2 * j]);
      EXPECT_EQ(vals[2 * (i * kCap + j) + 1], one_vals[2 * j + 1]);
    }
  }
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, BatchPipelineToggleKeepsResultsIdentical) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 700 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_batch_pipeline(nullptr, 1), CUSFFT_INVALID_ARGUMENT);

  auto run = [&](int pipeline, std::vector<uint64_t>& locs,
                 std::vector<double>& vals, std::size_t* counts) {
    ASSERT_EQ(cusfft_set_batch_pipeline(h, pipeline), CUSFFT_SUCCESS);
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap, locs.data(),
                                  vals.data(), counts),
              CUSFFT_SUCCESS);
  };

  std::vector<uint64_t> locs_on(kBatch * kCap), locs_off(kBatch * kCap);
  std::vector<double> vals_on(2 * kBatch * kCap), vals_off(2 * kBatch * kCap);
  std::size_t counts_on[kBatch] = {}, counts_off[kBatch] = {};
  run(1, locs_on, vals_on, counts_on);
  run(0, locs_off, vals_off, counts_off);

  // The toggle only changes the modeled batch schedule; recovered spectra
  // are bit-identical.
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts_on[i], counts_off[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts_on[i]; ++j) {
      EXPECT_EQ(locs_on[i * kCap + j], locs_off[i * kCap + j]);
      EXPECT_EQ(vals_on[2 * (i * kCap + j)], vals_off[2 * (i * kCap + j)]);
      EXPECT_EQ(vals_on[2 * (i * kCap + j) + 1],
                vals_off[2 * (i * kCap + j) + 1]);
    }
  }
  // CPU backends accept and ignore the call.
  cusfft_handle hs = nullptr;
  ASSERT_EQ(cusfft_plan(&hs, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_batch_pipeline(hs, 0), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(hs), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, PipelineEnvRereadEachBatch) {
  // CUSFFT_PIPELINE must be consulted on every batch. The old resolver
  // latched the first value in a function-local static, so flipping the
  // environment between runs silently did nothing. The modeled makespan
  // (profile "model_ms") is the observable: serialized batches are
  // strictly slower than pipelined ones, bit-identical results aside.
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 600 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  auto run_model_ms = [&]() {
    std::vector<uint64_t> locs(kBatch * kCap);
    std::vector<double> vals(2 * kBatch * kCap);
    std::size_t counts[kBatch] = {};
    EXPECT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
    std::size_t len = 0;
    EXPECT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
    std::vector<char> buf(len);
    EXPECT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
              CUSFFT_SUCCESS);
    cusfft::json::Value doc;
    std::string err;
    EXPECT_TRUE(cusfft::json::parse(buf.data(), doc, &err)) << err;
    const cusfft::json::Value* profile = doc.find("profile");
    return profile != nullptr ? profile->number_or("model_ms", -1.0) : -1.0;
  };

  ::setenv("CUSFFT_PIPELINE", "1", 1);
  run_model_ms();  // warm-up: pool and pipeline buffers allocate once
  const double pipelined = run_model_ms();
  ::setenv("CUSFFT_PIPELINE", "0", 1);
  const double serialized = run_model_ms();
  ::setenv("CUSFFT_PIPELINE", "1", 1);
  const double pipelined_again = run_model_ms();
  ::unsetenv("CUSFFT_PIPELINE");

  EXPECT_GT(pipelined, 0.0);
  EXPECT_GT(serialized, pipelined) << "env flip must reach the scheduler";
  EXPECT_DOUBLE_EQ(pipelined_again, pipelined);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, PcieStagingControls) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 850 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  // Argument validation.
  EXPECT_EQ(cusfft_set_pcie_staging(nullptr, CUSFFT_STAGING_UNLIMITED, 0),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_MAX_INFLIGHT, 0),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_pcie_staging(h, static_cast<cusfft_pcie_staging>(99),
                                    1),
            CUSFFT_INVALID_ARGUMENT);

  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  auto run = [&](std::vector<uint64_t>& locs, std::vector<double>& vals,
                 std::size_t* counts) {
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
  };
  std::vector<uint64_t> locs1(kBatch * kCap), locs2(kBatch * kCap);
  std::vector<double> vals1(2 * kBatch * kCap), vals2(2 * kBatch * kCap);
  std::size_t counts1[kBatch] = {}, counts2[kBatch] = {};
  run(locs1, vals1, counts1);
  cusfft_fleet_stats fs;
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.pcie_queue_ms, 0.0);  // unlimited never queues

  // Staged: a scheduling knob only, results identical.
  ASSERT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_ROUND_ROBIN, 0),
            CUSFFT_SUCCESS);
  run(locs2, vals2, counts2);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts1[i], counts2[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts1[i]; ++j) {
      EXPECT_EQ(locs1[i * kCap + j], locs2[i * kCap + j]);
      EXPECT_EQ(vals1[2 * (i * kCap + j)], vals2[2 * (i * kCap + j)]);
      EXPECT_EQ(vals1[2 * (i * kCap + j) + 1],
                vals2[2 * (i * kCap + j) + 1]);
    }
  }
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_GE(fs.pcie_queue_ms, 0.0);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);

  // CPU backends accept and ignore the knob.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_pcie_staging(cpu, CUSFFT_STAGING_MAX_INFLIGHT, 2),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(cpu), CUSFFT_SUCCESS);
}

TEST(CApi, StagingAndStatsFollowTopologyChanges) {
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 870 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  std::vector<uint64_t> locs(kBatch * kCap);
  std::vector<double> vals(2 * kBatch * kCap);
  std::size_t counts[kBatch] = {};
  // Runs the batch and returns the retained profile's staging name.
  auto run = [&]() -> std::string {
    EXPECT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
    std::size_t len = 0;
    EXPECT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
    std::vector<char> buf(len);
    EXPECT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
              CUSFFT_SUCCESS);
    cusfft::json::Value doc;
    std::string err;
    EXPECT_TRUE(cusfft::json::parse(buf.data(), doc, &err)) << err;
    const cusfft::json::Value* profile = doc.find("profile");
    return profile != nullptr ? profile->string_or("staging", "<none>")
                              : std::string("<no profile>");
  };
  cusfft_fleet_stats fs;
  cusfft_cluster_stats cs;

  // Set before the topology exists: the rebuild must carry it over.
  ASSERT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_ROUND_ROBIN, 0),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  EXPECT_EQ(run(), "round-robin");
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.devices, 2u);
  EXPECT_GT(fs.pcie_queue_ms, 0.0);
  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 1u);
  EXPECT_EQ(cs.devices, 2u);

  // Set on the live topology: the next run must see it.
  ASSERT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_UNLIMITED, 0),
            CUSFFT_SUCCESS);
  EXPECT_EQ(run(), "unlimited");
  ASSERT_EQ(cusfft_set_pcie_staging(h, CUSFFT_STAGING_ROUND_ROBIN, 0),
            CUSFFT_SUCCESS);
  EXPECT_EQ(run(), "round-robin");

  ASSERT_EQ(cusfft_set_node_count(h, 2), CUSFFT_SUCCESS);
  EXPECT_EQ(run(), "round-robin");
  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 2u);
  EXPECT_EQ(cs.devices, 4u);

  // 2 -> 1 nodes: stats reset until the next run, then one node of two.
  ASSERT_EQ(cusfft_set_node_count(h, 1), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(run(), "round-robin");
  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 1u);
  EXPECT_EQ(cs.devices, 2u);
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.devices, 2u);

  // 2 -> 1 devices: the single-device plan, no staging to report.
  ASSERT_EQ(cusfft_set_device_count(h, 1), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(run(), "<none>");
  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.devices, 1u);
  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 1u);
  EXPECT_EQ(cs.devices, 1u);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, MultiDeviceShardingMatchesSingleDevice) {
  constexpr std::size_t kBatch = 6;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 800 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_device_count(nullptr, 2), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_device_count(h, 0), CUSFFT_INVALID_ARGUMENT);

  // No batch has run yet: no fleet stats.
  cusfft_fleet_stats fs;
  EXPECT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_INVALID_ARGUMENT);

  auto run = [&](std::vector<uint64_t>& locs, std::vector<double>& vals,
                 std::size_t* counts) {
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
  };
  std::vector<uint64_t> locs1(kBatch * kCap), locs2(kBatch * kCap);
  std::vector<double> vals1(2 * kBatch * kCap), vals2(2 * kBatch * kCap);
  std::size_t counts1[kBatch] = {}, counts2[kBatch] = {};
  run(locs1, vals1, counts1);

  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  run(locs2, vals2, counts2);

  // Sharding only changes the modeled timeline: recovered spectra stay
  // bit-identical and in input order.
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts1[i], counts2[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts1[i]; ++j) {
      EXPECT_EQ(locs1[i * kCap + j], locs2[i * kCap + j]);
      EXPECT_EQ(vals1[2 * (i * kCap + j)], vals2[2 * (i * kCap + j)]);
      EXPECT_EQ(vals1[2 * (i * kCap + j) + 1],
                vals2[2 * (i * kCap + j) + 1]);
    }
  }

  ASSERT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_SUCCESS);
  EXPECT_EQ(fs.devices, 2u);
  EXPECT_EQ(fs.signals, kBatch);
  EXPECT_GT(fs.model_ms, 0);
  EXPECT_GE(fs.imbalance, 1.0);

  double util = -1;
  ASSERT_EQ(cusfft_get_device_utilization(h, 0, &util), CUSFFT_SUCCESS);
  EXPECT_GT(util, 0);
  EXPECT_LE(util, 1.0);
  EXPECT_EQ(cusfft_get_device_utilization(h, 2, &util),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_device_utilization(h, 0, nullptr),
            CUSFFT_INVALID_ARGUMENT);

  // The retained capture is the merged fleet profile.
  std::size_t len = 0;
  ASSERT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  std::vector<char> buf(len);
  ASSERT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  cusfft::json::Value doc;
  std::string err;
  ASSERT_TRUE(cusfft::json::parse(buf.data(), doc, &err)) << err;
  const cusfft::json::Value* profile = doc.find("profile");
  ASSERT_NE(profile, nullptr);
  const cusfft::json::Value* devices = profile->find("devices");
  ASSERT_NE(devices, nullptr);
  EXPECT_EQ(devices->array.size(), 2u);

  // Back to one device: fleet stats reset until the next run.
  ASSERT_EQ(cusfft_set_device_count(h, 1), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_fleet_stats(h, &fs), CUSFFT_INVALID_ARGUMENT);

  // CPU backends accept and ignore the setting.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_device_count(cpu, 4), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(cpu), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, FailedFleetRunKeepsLastGoodStats) {
  // A multi-device batch that throws must leave the previous successful
  // run's fleet and cluster stats in place, as the single-device path
  // does, not an empty stats object reporting success.
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kCap = 32;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 850 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  std::vector<uint64_t> locs(kBatch * kCap);
  std::vector<double> vals(2 * kBatch * kCap);
  std::size_t counts[kBatch] = {};
  ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap, locs.data(),
                                vals.data(), counts),
            CUSFFT_SUCCESS);
  cusfft_fleet_stats good;
  ASSERT_EQ(cusfft_get_fleet_stats(h, &good), CUSFFT_SUCCESS);
  ASSERT_EQ(good.devices, 2u);
  ASSERT_EQ(good.signals, kBatch);
  ASSERT_GT(good.model_ms, 0.0);
  cusfft_cluster_stats good_cluster;
  ASSERT_EQ(cusfft_get_cluster_stats(h, &good_cluster), CUSFFT_SUCCESS);

  ::setenv("CUSFFT_ALGO", "bogus", 1);
  EXPECT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap, locs.data(),
                                vals.data(), counts),
            CUSFFT_INVALID_ARGUMENT);
  std::size_t count = kCap;
  EXPECT_EQ(cusfft_execute(h, inputs.data(), locs.data(), vals.data(),
                           &count),
            CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_ALGO");

  cusfft_fleet_stats after;
  ASSERT_EQ(cusfft_get_fleet_stats(h, &after), CUSFFT_SUCCESS);
  EXPECT_EQ(after.devices, good.devices);
  EXPECT_EQ(after.signals, good.signals);
  EXPECT_EQ(after.model_ms, good.model_ms);
  cusfft_cluster_stats after_cluster;
  ASSERT_EQ(cusfft_get_cluster_stats(h, &after_cluster), CUSFFT_SUCCESS);
  EXPECT_EQ(after_cluster.devices, good_cluster.devices);
  EXPECT_EQ(after_cluster.signals, good_cluster.signals);
  EXPECT_EQ(after_cluster.model_ms, good_cluster.model_ms);
  cusfft_destroy(h);
}

TEST(CApi, NodeCountRoutesThroughClusterBitIdentically) {
  constexpr std::size_t kBatch = 6;
  constexpr std::size_t kCap = 64;
  const std::size_t n = 1 << 12, k = 8;
  std::vector<double> inputs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const CWorkload w = make_workload(n, k, 860 + i);
    const double* d = reinterpret_cast<const double*>(w.x.data());
    inputs.insert(inputs.end(), d, d + 2 * n);
  }

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, n, k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_node_count(nullptr, 2), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_set_node_count(h, 0), CUSFFT_INVALID_ARGUMENT);

  // No batch has run yet: no cluster stats.
  cusfft_cluster_stats cs;
  EXPECT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_cluster_stats(h, nullptr), CUSFFT_INVALID_ARGUMENT);

  auto run = [&](std::vector<uint64_t>& locs, std::vector<double>& vals,
                 std::size_t* counts) {
    ASSERT_EQ(cusfft_execute_many(h, inputs.data(), kBatch, kCap,
                                  locs.data(), vals.data(), counts),
              CUSFFT_SUCCESS);
  };
  std::vector<uint64_t> locs1(kBatch * kCap), locs2(kBatch * kCap);
  std::vector<double> vals1(2 * kBatch * kCap), vals2(2 * kBatch * kCap);
  std::size_t counts1[kBatch] = {}, counts2[kBatch] = {};
  run(locs1, vals1, counts1);

  // One node, one device: the cluster view degrades to the fleet's.
  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 1u);
  EXPECT_EQ(cs.nic_transfers, 0u);
  EXPECT_EQ(cs.nic_bytes, 0);

  ASSERT_EQ(cusfft_set_device_count(h, 2), CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_node_count(h, 2), CUSFFT_SUCCESS);
  run(locs2, vals2, counts2);

  // Node sharding only changes the modeled timeline: recovered spectra
  // stay bit-identical and in input order.
  for (std::size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(counts1[i], counts2[i]) << "signal " << i;
    for (std::size_t j = 0; j < counts1[i]; ++j) {
      EXPECT_EQ(locs1[i * kCap + j], locs2[i * kCap + j]);
      EXPECT_EQ(vals1[2 * (i * kCap + j)], vals2[2 * (i * kCap + j)]);
      EXPECT_EQ(vals1[2 * (i * kCap + j) + 1],
                vals2[2 * (i * kCap + j) + 1]);
    }
  }

  ASSERT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_SUCCESS);
  EXPECT_EQ(cs.nodes, 2u);
  EXPECT_EQ(cs.devices, 4u);
  EXPECT_EQ(cs.signals, kBatch);
  EXPECT_GT(cs.model_ms, 0);
  EXPECT_GE(cs.imbalance, 1.0);
  // The remote node's shard staged over the NIC.
  EXPECT_GT(cs.nic_transfers, 0u);
  EXPECT_GT(cs.nic_bytes, 0);

  // The retained capture is the merged cluster profile: one track group
  // per device across both nodes, NIC spans present.
  std::size_t len = 0;
  ASSERT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  std::vector<char> buf(len);
  ASSERT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  const std::string trace(buf.data());
  EXPECT_NE(trace.find("\"nodes\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"nic\""), std::string::npos);

  // Back to one node: stats reset until the next run.
  ASSERT_EQ(cusfft_set_node_count(h, 1), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_cluster_stats(h, &cs), CUSFFT_INVALID_ARGUMENT);

  // CPU backends accept and ignore the setting; they never have cluster
  // stats.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, n, k, CUSFFT_BACKEND_SERIAL), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_node_count(cpu, 4), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_get_cluster_stats(cpu, &cs), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_destroy(cpu), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, ExecuteManyErrorPaths) {
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, 1 << 10, 4, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  uint64_t locs[4];
  double vals[8];
  std::size_t counts[1];
  std::vector<double> in(2 << 10, 0.0);
  EXPECT_EQ(cusfft_execute_many(nullptr, in.data(), 1, 4, locs, vals, counts),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_execute_many(h, nullptr, 1, 4, locs, vals, counts),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_execute_many(h, in.data(), 1, 4, locs, vals, nullptr),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);
}

TEST(CApi, CapacityTruncationKeepsLargest) {
  const auto w = make_workload(1 << 13, 10, 654);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  std::vector<uint64_t> locs(4);
  std::vector<double> vals(8);
  std::size_t count = 4;  // smaller than k: truncate to the 4 largest
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  EXPECT_EQ(count, 4u);
  for (std::size_t i = 0; i < count; ++i) {
    const cplx v{vals[2 * i], vals[2 * i + 1]};
    EXPECT_GT(std::abs(v), 0.5);  // real tones, not noise candidates
  }
  cusfft_destroy(h);
}

TEST(CApi, SeedControlIsDeterministic) {
  const auto w = make_workload(1 << 13, 8, 777);
  auto run = [&](uint64_t seed) {
    cusfft_handle h = nullptr;
    EXPECT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_SERIAL),
              CUSFFT_SUCCESS);
    EXPECT_EQ(cusfft_set_seed(h, seed), CUSFFT_SUCCESS);
    std::vector<uint64_t> locs(64);
    std::vector<double> vals(128);
    std::size_t count = 64;
    EXPECT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                             locs.data(), vals.data(), &count),
              CUSFFT_SUCCESS);
    cusfft_destroy(h);
    locs.resize(count);
    return locs;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(CApi, ErrorPaths) {
  cusfft_handle h = nullptr;
  EXPECT_EQ(cusfft_plan(nullptr, 1 << 14, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_plan(&h, 1000, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_INVALID_ARGUMENT);  // n not a power of two
  EXPECT_EQ(h, nullptr);
  EXPECT_EQ(cusfft_plan(&h, 1 << 14, 8, static_cast<cusfft_backend>(99)),
            CUSFFT_INVALID_ARGUMENT);
  // Device-memory budget failure surfaces as ALLOC_FAILED.
  EXPECT_EQ(cusfft_plan(&h, 1ULL << 28, 1000, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_ALLOC_FAILED);

  ASSERT_EQ(cusfft_plan(&h, 1 << 14, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  std::size_t count = 8;
  EXPECT_EQ(cusfft_execute(h, nullptr, nullptr, nullptr, &count),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_get_size(nullptr, &count, &count),
            CUSFFT_INVALID_ARGUMENT);

  // Every entry point taking a C enum rejects integers outside the enum,
  // above and below, before storing or converting them (clean under
  // -fsanitize=enum).
  for (const int bad : {-1, 4, 99}) {
    cusfft_handle none = nullptr;
    EXPECT_EQ(cusfft_plan(&none, 1 << 14, 8, static_cast<cusfft_backend>(bad)),
              CUSFFT_INVALID_ARGUMENT)
        << bad;
    EXPECT_EQ(none, nullptr);
    EXPECT_EQ(cusfft_set_algorithm(h, static_cast<cusfft_algorithm>(bad)),
              CUSFFT_INVALID_ARGUMENT)
        << bad;
    EXPECT_EQ(cusfft_set_pcie_staging(
                  h, static_cast<cusfft_pcie_staging>(bad), 1),
              CUSFFT_INVALID_ARGUMENT)
        << bad;
    EXPECT_EQ(cusfft_metrics_write("unused.json",
                                   static_cast<cusfft_metrics_format>(bad)),
              CUSFFT_INVALID_ARGUMENT)
        << bad;
  }
  // The rejected calls left the plan usable.
  std::size_t n = 0, k = 0;
  EXPECT_EQ(cusfft_get_size(h, &n, &k), CUSFFT_SUCCESS);
  EXPECT_EQ(n, 1u << 14);
  cusfft_destroy(h);

  cusfft_server s = nullptr;
  ASSERT_EQ(cusfft_server_create(&s, nullptr), CUSFFT_SUCCESS);
  const cvec x(256);
  const auto* in = reinterpret_cast<const double*>(x.data());
  for (const int bad : {-1, 2, 99}) {
    uint64_t id = 0;
    EXPECT_EQ(cusfft_server_submit(s, "a", 0.0, x.size(), 4,
                                   static_cast<cusfft_slo_class>(bad), 0, in,
                                   &id),
              CUSFFT_INVALID_ARGUMENT)
        << bad;
  }
  EXPECT_EQ(cusfft_server_destroy(s), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_destroy(nullptr), CUSFFT_SUCCESS);  // free(NULL) style
}

TEST(CApi, ProfileJsonSizeQueryThenFetch) {
  const auto w = make_workload(1 << 12, 8, 654);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);

  // Before the first execute there is no capture to profile.
  std::size_t len = 0;
  EXPECT_EQ(cusfft_profile_json(h, nullptr, 0, &len),
            CUSFFT_INVALID_ARGUMENT);

  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * locs.size());
  std::size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);

  // Size query, then an undersized buffer, then the real fetch.
  ASSERT_EQ(cusfft_profile_json(h, nullptr, 0, &len), CUSFFT_SUCCESS);
  ASSERT_GT(len, 2u);
  std::vector<char> small(len / 2);
  std::size_t need = small.size();
  EXPECT_EQ(cusfft_profile_json(h, small.data(), small.size(), &need),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(need, len);  // the required capacity is always reported
  std::vector<char> buf(len);
  ASSERT_EQ(cusfft_profile_json(h, buf.data(), buf.size(), &len),
            CUSFFT_SUCCESS);
  EXPECT_EQ(buf[len - 1], '\0');

  cusfft::json::Value doc;
  std::string err;
  ASSERT_TRUE(cusfft::json::parse(buf.data(), doc, &err)) << err;
  const cusfft::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_FALSE(events->array.empty());
  EXPECT_NE(doc.find("profile"), nullptr);

  cusfft_destroy(h);
}

TEST(CApi, ProfileWriteAndCpuBackendHasNone) {
  const auto w = make_workload(1 << 12, 8, 655);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * locs.size());
  std::size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);

  const std::string path =
      ::testing::TempDir() + "cusfft_capi_profile.json";
  ASSERT_EQ(cusfft_profile_write(h, path.c_str()), CUSFFT_SUCCESS);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  cusfft::json::Value doc;
  EXPECT_TRUE(cusfft::json::parse(ss.str(), doc));
  std::remove(path.c_str());
  EXPECT_EQ(cusfft_profile_write(h, nullptr), CUSFFT_INVALID_ARGUMENT);
  cusfft_destroy(h);

  // CPU backends run no simulated device, so no profile exists.
  cusfft_handle cpu = nullptr;
  ASSERT_EQ(cusfft_plan(&cpu, w.n, w.k, CUSFFT_BACKEND_SERIAL),
            CUSFFT_SUCCESS);
  count = locs.size();
  ASSERT_EQ(cusfft_execute(cpu, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_profile_write(cpu, path.c_str()),
            CUSFFT_INVALID_ARGUMENT);
  cusfft_destroy(cpu);
}

TEST(CApi, MetricsJsonSizeQueryThenFetch) {
  // Drive some traffic through the GPU backend so the registry is
  // non-empty, then exercise the buf/cap/len protocol.
  const auto w = make_workload(1 << 12, 8, 77);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED), CUSFFT_SUCCESS);
  std::vector<size_t> locs(w.k);
  std::vector<double> vals(2 * w.k);
  size_t count = locs.size();
  ASSERT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  cusfft_destroy(h);

  size_t len = 0;
  ASSERT_EQ(cusfft_metrics_json(nullptr, 0, &len), CUSFFT_SUCCESS);
  ASSERT_GT(len, 1u);  // includes the NUL terminator
  std::string doc(len, '\0');
  // A too-small buffer must be rejected without writing past it.
  EXPECT_EQ(cusfft_metrics_json(doc.data(), len - 1, &len),
            CUSFFT_INVALID_ARGUMENT);
  ASSERT_EQ(cusfft_metrics_json(doc.data(), doc.size(), &len),
            CUSFFT_SUCCESS);
  doc.resize(len - 1);  // drop the NUL
  EXPECT_NE(doc.find("\"schema\": \"cusfft-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("cusfft_executes_total"), std::string::npos);

  // The Prometheus exposition goes through the same protocol.
  size_t tlen = 0;
  ASSERT_EQ(cusfft_metrics_text(nullptr, 0, &tlen), CUSFFT_SUCCESS);
  std::string text(tlen, '\0');
  ASSERT_EQ(cusfft_metrics_text(text.data(), text.size(), &tlen),
            CUSFFT_SUCCESS);
  EXPECT_NE(text.find("# TYPE cusfft_executes_total counter"),
            std::string::npos);

  EXPECT_EQ(cusfft_metrics_json(nullptr, 0, nullptr),
            CUSFFT_INVALID_ARGUMENT);
}

TEST(CApi, MetricsWriteAndReset) {
  const std::string path = "/tmp/cusfft_capi_metrics.json";
  ASSERT_EQ(cusfft_metrics_write(path.c_str(), CUSFFT_METRICS_JSON),
            CUSFFT_SUCCESS);
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("cusfft-metrics-v1"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_EQ(cusfft_metrics_write(nullptr, CUSFFT_METRICS_JSON),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_metrics_write(path.c_str(),
                                 static_cast<cusfft_metrics_format>(42)),
            CUSFFT_INVALID_ARGUMENT);

  // reset() zeroes counters; the exposition survives and stays valid.
  ASSERT_EQ(cusfft_metrics_reset(), CUSFFT_SUCCESS);
  size_t len = 0;
  ASSERT_EQ(cusfft_metrics_json(nullptr, 0, &len), CUSFFT_SUCCESS);
  std::string doc(len, '\0');
  ASSERT_EQ(cusfft_metrics_json(doc.data(), doc.size(), &len),
            CUSFFT_SUCCESS);
  if (doc.find("cusfft_executes_total") != std::string::npos) {
    EXPECT_NE(doc.find("\"cusfft_executes_total\": 0"), std::string::npos)
        << "after reset, a registered counter must read 0";
  }
}

// Reads cusfft_algo_executes_total{algo="<name>"} from the global metrics
// snapshot — the observable that proves which backend actually ran.
double algo_execs(const char* algo_name) {
  size_t len = 0;
  EXPECT_EQ(cusfft_metrics_json(nullptr, 0, &len), CUSFFT_SUCCESS);
  std::string doc(len, '\0');
  EXPECT_EQ(cusfft_metrics_json(doc.data(), doc.size(), &len),
            CUSFFT_SUCCESS);
  cusfft::json::Value v;
  std::string err;
  EXPECT_TRUE(cusfft::json::parse(doc.c_str(), v, &err)) << err;
  const cusfft::json::Value* counters = v.find("counters");
  if (counters == nullptr) return 0.0;
  return counters->number_or(
      std::string("cusfft_algo_executes_total{algo=\"") + algo_name + "\"}",
      0.0);
}

cusfft::SparseSpectrum capi_execute(cusfft_handle h, const CWorkload& w) {
  std::vector<uint64_t> locs(4 * w.k);
  std::vector<double> vals(2 * 4 * w.k);
  std::size_t count = locs.size();
  EXPECT_EQ(cusfft_execute(h, reinterpret_cast<const double*>(w.x.data()),
                           locs.data(), vals.data(), &count),
            CUSFFT_SUCCESS);
  cusfft::SparseSpectrum got;
  for (std::size_t i = 0; i < count; ++i)
    got.push_back({locs[i], cplx{vals[2 * i], vals[2 * i + 1]}});
  return got;
}

TEST(CApi, SetAlgorithmRoundTripsOnEveryBackend) {
  ::unsetenv("CUSFFT_ALGO");
  const auto w = make_workload(1 << 12, 8, 424);
  for (const cusfft_backend be :
       {CUSFFT_BACKEND_SERIAL, CUSFFT_BACKEND_PSFFT,
        CUSFFT_BACKEND_GPU_OPTIMIZED}) {
    cusfft_handle h = nullptr;
    ASSERT_EQ(cusfft_plan(&h, w.n, w.k, be), CUSFFT_SUCCESS);
    ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_FFAST), CUSFFT_SUCCESS);
    EXPECT_DOUBLE_EQ(
        cusfft::location_recall(capi_execute(h, w), w.oracle, w.k), 1.0)
        << "ffast on backend " << be;
    ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_CUSFFT), CUSFFT_SUCCESS);
    EXPECT_DOUBLE_EQ(
        cusfft::location_recall(capi_execute(h, w), w.oracle, w.k), 1.0)
        << "cusfft on backend " << be;
    EXPECT_EQ(cusfft_set_algorithm(h, static_cast<cusfft_algorithm>(42)),
              CUSFFT_INVALID_ARGUMENT);
    cusfft_destroy(h);
  }

  // AUTO resolves through the crossover picker on the GPU backend (CPU
  // backends have no device spec to price against and fall back to the
  // default bucket hashing).
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO), CUSFFT_SUCCESS);
  EXPECT_DOUBLE_EQ(
      cusfft::location_recall(capi_execute(h, w), w.oracle, w.k), 1.0);
  cusfft_destroy(h);
}

TEST(CApi, AlgoEnvMalformedIsInvalidArgumentNeverLatched) {
  ::setenv("CUSFFT_ALGO", "fastest", 1);
  cusfft_handle h = nullptr;
  EXPECT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(h, nullptr);
  EXPECT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_SERIAL),
            CUSFFT_INVALID_ARGUMENT);

  // The environment is re-read on every rebuild, never latched: clearing
  // it makes the identical call succeed, and re-poisoning it fails the
  // next rebuild on a live handle.
  ::unsetenv("CUSFFT_ALGO");
  ASSERT_EQ(cusfft_plan(&h, 1 << 12, 8, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  ::setenv("CUSFFT_ALGO", "fastest", 1);
  EXPECT_EQ(cusfft_set_seed(h, 7), CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_ALGO");
  EXPECT_EQ(cusfft_set_seed(h, 7), CUSFFT_SUCCESS);

  // CUSFFT_AUTOPICK is parsed strictly too, but only consulted when the
  // algorithm resolves to AUTO.
  ::setenv("CUSFFT_AUTOPICK", "guess", 1);
  EXPECT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_CUSFFT), CUSFFT_SUCCESS);
  EXPECT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO),
            CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_AUTOPICK");
  EXPECT_EQ(cusfft_set_algorithm(h, CUSFFT_ALGO_AUTO), CUSFFT_SUCCESS);
  cusfft_destroy(h);
}

TEST(CApi, AlgoEnvOverridesPlannedAlgorithm) {
  const auto w = make_workload(1 << 12, 8, 929);
  ::setenv("CUSFFT_ALGO", "ffast", 1);
  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, w.n, w.k, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  const double ffast_before = algo_execs("ffast");
  capi_execute(h, w);
  EXPECT_DOUBLE_EQ(algo_execs("ffast"), ffast_before + 1)
      << "CUSFFT_ALGO=ffast must reach the GPU plan";

  ::unsetenv("CUSFFT_ALGO");
  ASSERT_EQ(cusfft_set_seed(h, 3), CUSFFT_SUCCESS);  // rebuild re-reads env
  const double cusfft_before = algo_execs("cusfft");
  capi_execute(h, w);
  EXPECT_DOUBLE_EQ(algo_execs("cusfft"), cusfft_before + 1)
      << "clearing the override must restore the planned algorithm";
  cusfft_destroy(h);
}

TEST(CApi, ServerRoundTripMatchesPlanExecute) {
  // Virtual-clock serving through the C surface: batched results must be
  // bit-identical to cusfft_execute on a standalone GPU_OPTIMIZED plan of
  // the same shape (both sides use the default permutation seed).
  constexpr std::size_t kN = 1 << 10, kK = 8, kCap = 64;
  cusfft_server_config cfg;
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  EXPECT_GE(cfg.max_batch, 1u);
  cfg.devices = 1;
  cfg.max_batch = 4;
  cfg.tenant_queue_depth = 8;

  cusfft_server s = nullptr;
  ASSERT_EQ(cusfft_server_create(&s, &cfg), CUSFFT_SUCCESS);
  ASSERT_NE(s, nullptr);

  std::vector<cvec> signals;
  std::vector<uint64_t> ids(3);
  for (std::size_t i = 0; i < 3; ++i)
    signals.push_back(make_workload(kN, kK, 500 + i).x);
  for (std::size_t i = 0; i < 3; ++i)
    ASSERT_EQ(cusfft_server_submit(
                  s, i % 2 ? "tenant_a" : "tenant_b", 0.1 * double(i), kN,
                  kK, CUSFFT_SLO_THROUGHPUT, /*deadline_ms=*/0,
                  reinterpret_cast<const double*>(signals[i].data()),
                  &ids[i]),
              CUSFFT_SUCCESS);

  // Still pending: no batch has closed, so results are not available yet.
  cusfft_request_outcome oc = CUSFFT_REQUEST_COMPLETED;
  ASSERT_EQ(cusfft_server_outcome(s, ids[0], &oc), CUSFFT_SUCCESS);
  EXPECT_EQ(oc, CUSFFT_REQUEST_PENDING);

  ASSERT_EQ(cusfft_server_drain(s), CUSFFT_SUCCESS);

  cusfft_handle h = nullptr;
  ASSERT_EQ(cusfft_plan(&h, kN, kK, CUSFFT_BACKEND_GPU_OPTIMIZED),
            CUSFFT_SUCCESS);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(cusfft_server_outcome(s, ids[i], &oc), CUSFFT_SUCCESS);
    ASSERT_EQ(oc, CUSFFT_REQUEST_COMPLETED) << "request " << i;

    std::vector<uint64_t> got_locs(kCap), want_locs(kCap);
    std::vector<double> got_vals(2 * kCap), want_vals(2 * kCap);
    std::size_t got_n = kCap, want_n = kCap;
    double latency = -1;
    ASSERT_EQ(cusfft_server_result(s, ids[i], got_locs.data(),
                                   got_vals.data(), &got_n, &latency),
              CUSFFT_SUCCESS);
    EXPECT_GT(latency, 0.0);
    ASSERT_EQ(cusfft_execute(
                  h, reinterpret_cast<const double*>(signals[i].data()),
                  want_locs.data(), want_vals.data(), &want_n),
              CUSFFT_SUCCESS);
    ASSERT_EQ(got_n, want_n) << "request " << i;
    for (std::size_t j = 0; j < got_n; ++j) {
      EXPECT_EQ(got_locs[j], want_locs[j]) << "request " << i;
      EXPECT_DOUBLE_EQ(got_vals[2 * j], want_vals[2 * j]) << "request " << i;
      EXPECT_DOUBLE_EQ(got_vals[2 * j + 1], want_vals[2 * j + 1])
          << "request " << i;
    }
  }
  EXPECT_EQ(cusfft_destroy(h), CUSFFT_SUCCESS);

  cusfft_serve_stats st;
  ASSERT_EQ(cusfft_server_stats(s, &st), CUSFFT_SUCCESS);
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.completed + st.shed + st.rejected, st.submitted);
  EXPECT_GT(st.sustained_qps, 0.0);
  EXPECT_GT(st.throughput_p99_ms, 0.0);

  EXPECT_EQ(cusfft_server_destroy(s), CUSFFT_SUCCESS);
}

TEST(CApi, ServerBackpressureAndErrorPaths) {
  cusfft_server_config cfg;
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  cfg.tenant_queue_depth = 1;
  cusfft_server s = nullptr;
  ASSERT_EQ(cusfft_server_create(&s, &cfg), CUSFFT_SUCCESS);

  constexpr std::size_t kN = 256, kK = 4;
  const cvec x = make_workload(kN, kK, 9).x;
  const auto* in = reinterpret_cast<const double*>(x.data());
  uint64_t id1 = 0, id2 = 0;
  ASSERT_EQ(cusfft_server_submit(s, "a", 0.0, kN, kK,
                                 CUSFFT_SLO_THROUGHPUT, 0, in, &id1),
            CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_server_submit(s, "a", 0.0, kN, kK,
                                 CUSFFT_SLO_THROUGHPUT, 0, in, &id2),
            CUSFFT_SUCCESS);
  cusfft_request_outcome oc = CUSFFT_REQUEST_PENDING;
  ASSERT_EQ(cusfft_server_outcome(s, id2, &oc), CUSFFT_SUCCESS);
  EXPECT_EQ(oc, CUSFFT_REQUEST_REJECTED);  // over the tenant quota

  // A rejected request has no spectrum to fetch.
  std::vector<uint64_t> locs(8);
  std::vector<double> vals(16);
  std::size_t count = 8;
  EXPECT_EQ(cusfft_server_result(s, id2, locs.data(), vals.data(), &count,
                                 nullptr),
            CUSFFT_INVALID_ARGUMENT);

  EXPECT_EQ(cusfft_server_submit(s, nullptr, 0.0, kN, kK,
                                 CUSFFT_SLO_THROUGHPUT, 0, in, &id1),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_submit(s, "a", 0.0, kN, kK,
                                 static_cast<cusfft_slo_class>(42), 0, in,
                                 &id1),
            CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_advance(nullptr, 1.0), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_drain(nullptr), CUSFFT_INVALID_ARGUMENT);
  EXPECT_EQ(cusfft_server_stats(s, nullptr), CUSFFT_INVALID_ARGUMENT);
  // Like cusfft_destroy, destroying NULL is a no-op success.
  EXPECT_EQ(cusfft_server_destroy(nullptr), CUSFFT_SUCCESS);

  ASSERT_EQ(cusfft_server_drain(s), CUSFFT_SUCCESS);
  ASSERT_EQ(cusfft_server_outcome(s, id1, &oc), CUSFFT_SUCCESS);
  EXPECT_EQ(oc, CUSFFT_REQUEST_COMPLETED);
  EXPECT_EQ(cusfft_server_destroy(s), CUSFFT_SUCCESS);
}

TEST(CApi, ServerConfigDefaultReadsEnvStrictly) {
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "5", 1);
  cusfft_server_config cfg;
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  EXPECT_EQ(cfg.max_batch, 5u);
  ::setenv("CUSFFT_SERVE_MAX_BATCH", "junk", 1);
  EXPECT_EQ(cusfft_server_config_default(&cfg), CUSFFT_INVALID_ARGUMENT);
  ::unsetenv("CUSFFT_SERVE_MAX_BATCH");
  ASSERT_EQ(cusfft_server_config_default(&cfg), CUSFFT_SUCCESS);
  EXPECT_EQ(cfg.max_batch, 8u);  // library default, not the latched 5
}

TEST(CApi, StatusStrings) {
  EXPECT_STREQ(cusfft_status_string(CUSFFT_SUCCESS), "success");
  EXPECT_STREQ(cusfft_status_string(CUSFFT_INVALID_ARGUMENT),
               "invalid argument");
  EXPECT_STREQ(cusfft_status_string(CUSFFT_ALLOC_FAILED),
               "allocation failed");
  EXPECT_STREQ(cusfft_status_string(static_cast<cusfft_status>(-99)),
               "unknown status");
}

}  // namespace
