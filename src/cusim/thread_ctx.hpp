// Per-thread kernel execution context: the simulator's threadIdx/blockIdx
// plus the tracing hooks DeviceBuffer routes memory accesses through.
#pragma once

#include "core/types.hpp"
#include "cusim/trace.hpp"

namespace cusfft::cusim {

class ThreadCtx {
 public:
  u32 thread_idx = 0;  // within the block
  u32 block_idx = 0;
  u32 block_dim = 1;
  u64 grid_dim = 1;

  /// Flat global thread id (1-D launches, like every kernel in the paper).
  u64 global_id() const {
    return static_cast<u64>(block_idx) * block_dim + thread_idx;
  }

  /// Self-reported floating-point work (counted for every thread, traced or
  /// not; feeds the compute roofline).
  void add_flops(double f) { flops_ += f; }
  double flops() const { return flops_; }

  // ---- hooks used by DeviceBuffer (not by kernel authors) ----
  void record_global(u64 addr, u32 bytes) {
    if (tracer_) tracer_->on_access(slot_, addr, bytes, false);
    ++slot_;
  }
  void record_atomic(u64 addr, u32 bytes) {
    if (tracer_) tracer_->on_access(slot_, addr, bytes, true);
    ++slot_;
  }
  void record_shared(double count) {
    if (tracer_) tracer_->on_shared(count);
  }

  void attach_trace(WarpTracer* t) { tracer_ = t; }
  /// Clears the flop counter for reuse across launches (Device keeps a pool
  /// of worker contexts instead of constructing fresh ones per launch).
  void reset_flops() { flops_ = 0; }
  void begin_thread(u32 tid) {
    thread_idx = tid;
    slot_ = 0;
  }

 private:
  WarpTracer* tracer_ = nullptr;  // null when this warp is not sampled
  u32 slot_ = 0;  // lane-local access sequence number
  double flops_ = 0;
};

}  // namespace cusfft::cusim
