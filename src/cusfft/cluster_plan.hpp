// Cluster execution: batches sharded across a cusim::Cluster of nodes
// (each node one DeviceGroup), and AccFFT-style slab decomposition of one
// signal whose working set exceeds a single device's modeled memory.
//
// Two execution shapes:
//
//   execute_many / execute_mixed — node-level sharding. The fleet's cost
//   model prices each signal per node (per-device analytic cost divided
//   by the node's device count) plus a NIC staging term for every node
//   except the head (node 0 is co-located with the data, so its shard
//   pays no NIC). The fleet's LPT routine (sharding.hpp) then places
//   signals onto the node with the smallest projected finish, and each
//   node's MultiGpuPlan re-shards its slice across its own devices.
//   Ingress staging is recorded as modeled NIC transfers overlapped with
//   compute (a node starts after its *first* payload lands). At M = 1
//   every call delegates verbatim to the node's MultiGpuPlan — stats,
//   artifacts, and spectra are the fleet's, bit for bit.
//
//   execute_slab — one oversized signal, input-slice decomposition. The
//   time-domain input splits into M contiguous slices; node m stages
//   only its slice (n/M samples over the NIC for m > 0), and its
//   binning kernel walks the full filter-tap sequence but accumulates
//   only taps whose permuted index lands in its slice. The per-node
//   partial bucket sums are exact per tap; the head node gathers them
//   (NIC exchange + barrier), reduces, and runs the estimation phase.
//   Summing partials regroups the floating-point accumulation, so the
//   slab spectrum is accuracy-tested against SerialPlan, not memcmp'd.
//
// Ordering contract matches MultiGpuPlan: spectra and per_signal stats
// in input order; device_of carries *global* (node-major) device
// indices; node_of carries the node split.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cusfft/multi_plan.hpp"
#include "cusim/cluster.hpp"

namespace cusfft::gpu {

class ClusterPlan {
 public:
  /// Cheap: the per-node MultiGpuPlans (same shape/options) are built
  /// on the first execute_many/execute_mixed, so execute_slab can drive
  /// the devices of a cluster whose batch plan would not fit them.
  ClusterPlan(cusim::Cluster& cluster, sfft::Params params, Options opts);
  ~ClusterPlan();
  ClusterPlan(ClusterPlan&&) noexcept;
  ClusterPlan& operator=(ClusterPlan&&) noexcept;
  ClusterPlan(const ClusterPlan&) = delete;
  ClusterPlan& operator=(const ClusterPlan&) = delete;

  std::size_t nodes() const;
  std::size_t devices() const;  ///< total, across nodes
  cusim::Cluster& cluster();
  const sfft::Params& params() const;

  /// Node each signal runs on: per-node cost = per-device analytic cost
  /// / node device count + NIC staging term (0 on the head node), LPT
  /// placement, strict ties to the lowest node. Pure and deterministic.
  std::vector<std::size_t> node_assignment(
      std::span<const sfft::Params> shapes) const;

  /// Shards the batch across nodes, records the NIC ingress, runs each
  /// node's shard through its MultiGpuPlan, and merges everything on the
  /// cluster clock. Results in input order; at M = 1 bit-identical to
  /// MultiGpuPlan::execute_many.
  std::vector<SparseSpectrum> execute_many(
      std::span<const std::span<const cplx>> xs,
      GpuFleetStats* stats = nullptr, BatchMode mode = BatchMode::kAuto);

  /// Mixed-shape cluster execution (see execute_many).
  std::vector<SparseSpectrum> execute_mixed(
      std::span<const MixedSignal> signals, GpuFleetStats* stats = nullptr,
      BatchMode mode = BatchMode::kAuto);

  /// Slab decomposition of one signal (see file comment). Requires
  /// params().comb == false (the Comb prefilter needs the whole signal
  /// resident). Throws std::runtime_error when the working set exceeds
  /// one device's memory and nodes() == 1 — the run that is impossible
  /// without the cluster.
  SparseSpectrum execute_slab(std::span<const cplx> x,
                              GpuFleetStats* stats = nullptr);

  /// Modeled single-device working set of shape `p` (signal + score +
  /// filter taps + per-loop buckets), the execute_slab oversize test.
  static std::size_t slab_working_set_bytes(const sfft::Params& p);

  /// One slab's per-device residency when `p` is decomposed across
  /// `nodes` nodes (input slice + filter taps + partial bins + gather
  /// scratch). execute_slab refuses when this still exceeds the node's
  /// device memory; benches/tests use it to size oversized-signal demos
  /// (the modeled memory must sit between this and the full working set).
  static std::size_t slab_node_working_set_bytes(const sfft::Params& p,
                                                 std::size_t nodes);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cusfft::gpu
