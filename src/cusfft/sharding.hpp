// Sharding core shared by MultiGpuPlan (signals onto devices) and
// ClusterPlan (signals onto nodes): the cost-model LPT placement and the
// fold of a merged device schedule into GpuFleetStats. Internal to
// src/cusfft.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cusfft/multi_plan.hpp"

namespace cusfft::gpu {

using CostMatrix = std::vector<std::vector<double>>;  // [signal][bin]

/// LPT placement: signals in descending cost[i][0] order (stable, so a
/// uniform batch keeps input order and degrades to round-robin), each
/// onto the bin with the smallest projected finish — its load plus
/// cost[i][b], plus surcharge[i][b] while bin b is still empty — strict
/// ties to the lowest bin. An empty `surcharge` charges nothing. Returns
/// the bin of every signal, input order. Pure and deterministic.
std::vector<std::size_t> lpt_assignment(const CostMatrix& cost,
                                        const CostMatrix& surcharge = {});

/// Appends one GpuDeviceShardStats per device of `g` to st.per_device,
/// read off the merged schedule `f` on a clock of makespan st.model_ms:
/// finish, PCIe stall/queue (also summed into st) and busy share.
/// `shards` supplies each device's signals and solo_ms (missing entries
/// are idle devices). Returns the summed utilization.
double fold_devices(const cusim::DeviceGroup& g,
                    const cusim::FleetSchedule& f,
                    std::vector<GpuDeviceShardStats> shards,
                    GpuFleetStats& st);

/// max/mean model_ms over the shards that received signals (every shard
/// when `count_idle`); 1.0 when none finished after t = 0.
template <typename Shard>
double imbalance_of(const std::vector<Shard>& shards, bool count_idle) {
  double sum = 0, max = 0;
  std::size_t busy = 0;
  for (const Shard& s : shards) {
    if (!count_idle && s.signals == 0) continue;
    sum += s.model_ms;
    max = std::max(max, s.model_ms);
    ++busy;
  }
  return busy > 0 && sum > 0 ? max / (sum / busy) : 1.0;
}

}  // namespace cusfft::gpu
