// Device-level reductions (Thrust `reduce` equivalents) as pairwise-tree
// kernel passes.
#pragma once

#include "core/types.hpp"
#include "cusim/device.hpp"

namespace cusfft::custhrust {

/// Sum of |x|^2 over a complex buffer (used to derive the fast-selection
/// threshold from the bucket RMS; Section V.B).
double reduce_norm2(cusim::Device& dev,
                    const cusim::DeviceBuffer<cplx>& data,
                    cusim::StreamId stream = 0);

/// reduce_norm2 over caller-owned temporary storage (CUB-style): `scratch`
/// holds at least data.size() doubles and is overwritten. Plans pass a
/// buffer they own, so a warm execute acquires nothing from the BufferPool —
/// which keeps pool deltas independent of how concurrent fleet shards
/// interleave on the process-wide pool.
double reduce_norm2(cusim::Device& dev,
                    const cusim::DeviceBuffer<cplx>& data,
                    cusim::DeviceBuffer<double>& scratch,
                    cusim::StreamId stream = 0);

/// Max |x| over a complex buffer.
double reduce_max_abs(cusim::Device& dev,
                      const cusim::DeviceBuffer<cplx>& data,
                      cusim::StreamId stream = 0);

}  // namespace cusfft::custhrust
