// Planned fast Fourier transforms — the from-scratch stand-in for FFTW on
// the CPU side and the computational core reused by the simulated cuFFT
// (src/cufftsim). Plan once, execute many times (FFTW/cuFFT idiom): the
// twiddle factors are precomputed at plan time.
//
// Supported sizes: any n >= 1. Powers of two use the iterative radix-2
// decimation-in-time kernel; other sizes go through Bluestein's chirp-z
// algorithm on a padded power-of-two plan.
//
// The radix-2 core keeps one n-entry twiddle table laid out stage by stage
// (the stage of half-width h reads entries [h, 2h) contiguously), reverses
// bits in place without a table, and runs the first stages one 64 KiB
// block at a time. Its results are bit-identical to a textbook radix-2
// with std::complex butterflies and strided twiddle reads, on every path
// (serial, batched, parallel) and for every input, Inf and NaN included.
// The one exception is which sign survives where NaNs of both signs meet
// in a sum: that follows the operand order the compiler picks. test_fft
// pins all of this against such a reference with memcmp, and
// docs/PERF.md §9 explains why it holds.
//
// Conventions match fft/dft.hpp: forward unnormalized, inverse carries 1/n.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/types.hpp"

namespace cusfft::fft {

enum class Direction { kForward, kInverse };

/// Analytic work estimate for one execution of a plan; feeds the CPU roofline
/// model (perfmodel) so modeled FFTW times use the real operation counts.
struct PlanCost {
  double flops = 0.0;   // floating-point operations per transform
  double bytes = 0.0;   // global (DRAM-level) bytes moved per transform
};

/// A reusable transform descriptor for fixed (n, direction).
class Plan {
 public:
  Plan(std::size_t n, Direction dir);
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  std::size_t size() const;
  Direction direction() const;

  /// Out-of-place execute. in.size() == out.size() == n. in may alias out.
  void execute(std::span<const cplx> in, std::span<cplx> out) const;

  /// In-place execute.
  void execute(std::span<cplx> data) const { execute(data, data); }

  /// Batched execute over `batch` contiguous transforms laid out
  /// back-to-back (data.size() == batch * n). This mirrors cuFFT's batched
  /// mode that the paper exploits in Step 3 (twiddles shared across a batch).
  void execute_batch(std::span<cplx> data, std::size_t batch) const;

  /// Batched execute parallelized over `pool` (one transform per task chunk);
  /// the "parallel FFTW" configuration.
  void execute_batch(std::span<cplx> data, std::size_t batch,
                     ThreadPool& pool) const;

  /// Single large transform with the stage butterflies split across `pool`.
  void execute_parallel(std::span<cplx> data, ThreadPool& pool) const;

  /// Work estimate per single transform (see PlanCost).
  PlanCost cost() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot conveniences (plan + execute); prefer Plan on hot paths.
cvec fft(std::span<const cplx> x);
cvec ifft(std::span<const cplx> x);

}  // namespace cusfft::fft
