#include "cusfft/plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/modmath.hpp"
#include "core/rng.hpp"
#include "cufftsim/cufftsim.hpp"
#include "cusim/metrics.hpp"
#include "custhrust/reduce.hpp"
#include "custhrust/sort.hpp"
#include "sfft/ffast.hpp"
#include "sfft/serial.hpp"
#include "sfft/steps.hpp"
#include "signal/filter.hpp"

namespace cusfft::gpu {

using cusim::DeviceBuffer;
using cusim::LaunchCfg;
using cusim::StreamId;
using cusim::ThreadCtx;

namespace {
constexpr std::size_t kMaxLoops = 32;  // estimation kernel's register array

/// FNV-1a over a word sequence — the plan's captured-graph domain salt.
/// Everything that shapes a cacheable kernel's access pattern (sizes,
/// permutation draws, comb taus, option toggles) folds in, so two plans
/// share launch records only when their launches are actually identical.
struct SaltHash {
  u64 h = 1469598103934665603ULL;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};
}

struct GpuPlan::Impl {
  cusim::Device* dev = nullptr;
  sfft::Params p;
  Options opts;

  std::size_t n = 0, B = 0, L = 0, w_pad = 0, rounds = 0, mask = 0;
  std::size_t hits_cap = 0;
  u64 graph_salt = 0;                    // captured-graph domain (ctor)
  std::vector<sfft::LoopPerm> perms;     // same draw as the serial plan

  // Device-resident state (allocated once per plan, like a real cusFFT
  // plan's cudaMallocs).
  DeviceBuffer<cplx> d_signal;        // n
  DeviceBuffer<cplx> d_filter_time;   // w_pad
  DeviceBuffer<cplx> d_filter_freq;   // n
  DeviceBuffer<u64> d_ai, d_a, d_tau; // L each
  DeviceBuffer<cplx> d_buckets;       // L*B (batched layout)
  DeviceBuffer<cplx> d_chunks;        // rounds*B — remapped A' (Section V.A)
  DeviceBuffer<cplx> d_partial;       // rounds*B — per-chunk products
  DeviceBuffer<u32> d_score;          // n
  DeviceBuffer<u32> d_hits;           // hits_cap
  DeviceBuffer<u32> d_num_hits;       // 1
  DeviceBuffer<cplx> d_est;           // hits_cap
  DeviceBuffer<double> d_keys;        // B (sort&select)
  DeviceBuffer<u32> d_vals;           // B
  DeviceBuffer<u32> d_selected;       // B (fast selection output)
  DeviceBuffer<u32> d_sel_count;      // 1
  DeviceBuffer<double> d_norm;        // B (fast-selection RMS reduction)
  std::vector<StreamId> streams;      // GK110: up to 32 concurrent kernels

  std::unique_ptr<cufftsim::Plan> fft_batched;  // (B, L)
  std::unique_ptr<cufftsim::Plan> fft_single;   // (B, 1) when !batched_fft
  DeviceBuffer<cplx> d_z;                       // B staging for !batched_fft

  // FFAST backend state (Params::algo == kFfast): the geometric stage
  // chain, one device buffer of kFfastShifts planes per stage, and one
  // batched cuFFT-sim plan per stage (batch = kFfastShifts, sizes differ
  // per stage). The layout matches sfft::FfastPlan exactly so the
  // downloaded planes feed the shared host-side peeling decoder
  // (sfft::ffast_peel); tests pin identical support vs the CPU plan and
  // values to FFT rounding (the stage FFTs run through cufftsim here).
  std::vector<sfft::FfastStage> ffast_stages;
  std::vector<DeviceBuffer<cplx>> d_ffast;      // per stage: 6 * bins
  std::vector<std::unique_ptr<cufftsim::Plan>> ffast_ffts;

  // sFFT 2.0 Comb prefilter state (Params::comb).
  std::size_t comb_W = 0;
  std::vector<u64> comb_taus;
  DeviceBuffer<u32> d_comb_approved;            // W flags
  DeviceBuffer<cplx> d_comb_y;                  // W aliased samples
  DeviceBuffer<double> d_comb_keys;             // W sort keys
  DeviceBuffer<u32> d_comb_vals;                // W sort values
  std::unique_ptr<cufftsim::Plan> comb_fft;     // (W, 1)

  // Pipelined-batch state (BatchMode::kPipelined): two home streams that
  // alternate by signal parity, plus a parity-1 copy of every buffer that
  // crosses the front/back stage boundary — the front stage (transfer +
  // comb + binning + FFT) of signal i+1 runs while the back stage
  // (cutoff + vote + estimate + d2h) of signal i drains, so both signals'
  // per-signal state must coexist. Back-stage-only buffers (hits, est,
  // selection scratch) stay single: back stages are serialized among
  // themselves by the `done` event chain, as are front stages (they share
  // the chunk/partial/FFT-work scratch) by the `binned` event chain.
  // Allocated lazily (pool-backed) on the first pipelined batch.
  std::vector<StreamId> home_streams;
  DeviceBuffer<cplx> d_signal_alt, d_buckets_alt, d_z_alt;
  DeviceBuffer<u32> d_score_alt, d_num_hits_alt, d_comb_approved_alt;
  std::vector<DeviceBuffer<cplx>> d_ffast_alt;  // FFAST parity-1 planes

  // Active per-signal buffer bindings: kernels address mutable per-signal
  // state through these so the pipelined path can flip whole sets by
  // signal parity. bind_buffers(0) selects the primaries (the serialized
  // and single-execute paths).
  DeviceBuffer<cplx>* sig_ = nullptr;
  DeviceBuffer<cplx>* buck_ = nullptr;
  DeviceBuffer<cplx>* zb_ = nullptr;
  DeviceBuffer<u32>* score_ = nullptr;
  DeviceBuffer<u32>* num_hits_ = nullptr;
  DeviceBuffer<u32>* comb_approved_ = nullptr;
  std::vector<DeviceBuffer<cplx>>* ffast_ = nullptr;

  void bind_buffers(std::size_t parity) {
    const bool alt = parity != 0;
    sig_ = alt ? &d_signal_alt : &d_signal;
    buck_ = alt ? &d_buckets_alt : &d_buckets;
    zb_ = alt ? &d_z_alt : &d_z;
    score_ = alt ? &d_score_alt : &d_score;
    num_hits_ = alt ? &d_num_hits_alt : &d_num_hits;
    comb_approved_ = alt ? &d_comb_approved_alt : &d_comb_approved;
    ffast_ = alt ? &d_ffast_alt : &d_ffast;
  }

  void ensure_pipeline_state() {
    if (home_streams.empty()) {
      home_streams.push_back(dev->create_stream());
      home_streams.push_back(dev->create_stream());
    }
    if (d_signal_alt.size() == 0) {
      d_signal_alt = DeviceBuffer<cplx>(n);
      if (p.algo == sfft::Algorithm::kFfast) {
        // The FFAST front stage only touches the signal and its stage
        // planes; none of the cusFFT scratch exists on this plan.
        for (const auto& st : ffast_stages)
          d_ffast_alt.emplace_back(sfft::kFfastShifts * st.bins);
        return;
      }
      d_buckets_alt = DeviceBuffer<cplx>(L * B);
      d_z_alt = DeviceBuffer<cplx>(B);
      d_score_alt = DeviceBuffer<u32>(n);
      d_num_hits_alt = DeviceBuffer<u32>(1);
      if (comb_W != 0) d_comb_approved_alt = DeviceBuffer<u32>(comb_W);
    }
  }

  // ---------------- kernels ----------------

  /// Steps 1-2, Algorithm 2: loop partition, one thread per bucket.
  void k_perm_filter_partition(std::size_t r, DeviceBuffer<cplx>& dst,
                               std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    // Index mapping (Fig. 3): index(off) = (tau + off*ai) mod n. Per round
    // off advances by B, so the index advances by the constant B*ai — mod
    // 2^k arithmetic under the mask is exact, turning the per-round 64-bit
    // multiply into an add+mask. Accumulating the re/im planes as plain
    // doubles is the same naive product complex operator* lowers to for
    // finite values: buckets stay bit-identical.
    const u64 step = (B * ai) & mask;
    dev->launch(LaunchCfg::for_elements("pf_partition", B, 256, s).cache(r),
                [&, ai, tau, step, dst_off](ThreadCtx& t) {
                  const u64 tid = t.global_id();
                  if (tid >= B) return;
                  double mr = 0.0, mi = 0.0;
                  u64 index = (tau + tid * ai) & mask;
                  for (std::size_t j = 0; j < rounds; ++j) {
                    const u64 off = tid + B * j;
                    const cplx xv = sig_->load(t, index);
                    const cplx fv = d_filter_time.load(t, off);
                    mr += xv.real() * fv.real() - xv.imag() * fv.imag();
                    mi += xv.real() * fv.imag() + xv.imag() * fv.real();
                    index = (index + step) & mask;
                    t.add_flops(10);
                  }
                  dst.store(t, dst_off + tid, cplx{mr, mi});
                });
  }

  /// Section V.A: remap chunk c into coalesced order on its own stream.
  void k_remap(std::size_t r, std::size_t c, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_remap", B, 256, s)
                    .cache((static_cast<u64>(r) << 32) | c),
                [&, ai, tau, c](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  const u64 off = c * B + i;
                  const u64 index = (tau + off * ai) & mask;
                  d_chunks.store(t, off, sig_->load(t, index));
                });
  }

  /// Section V.A: execute kernel — consumes the reordered chunk, all
  /// accesses coalesced.
  void k_execute_chunk(std::size_t c, StreamId s) {
    dev->launch(LaunchCfg::for_elements("pf_execute", B, 256, s).cache(c),
                [&, c](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  const u64 off = c * B + i;
                  t.add_flops(6);
                  d_partial.store(t, off, d_chunks.load(t, off) *
                                              d_filter_time.load(t, off));
                });
  }

  /// Section V.A: combine per-chunk partials into the loop's buckets.
  void k_combine(DeviceBuffer<cplx>& dst, std::size_t dst_off, StreamId s) {
    dev->launch(
        LaunchCfg::for_elements("pf_combine", B, 256, s).cache(dst_off),
        [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  cplx acc{0.0, 0.0};
                  for (std::size_t c = 0; c < rounds; ++c) {
                    acc += d_partial.load(t, c * B + i);
                    t.add_flops(2);
                  }
                  dst.store(t, dst_off + i, acc);
                });
  }

  /// Ablation: the conventional histogram kernel — one thread per filter
  /// tap, atomicAdd into the shared bucket array (the approach Section IV.C
  /// argues against).
  void k_atomic_histogram(std::size_t r, DeviceBuffer<cplx>& dst,
                          std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_zero", B, 256, s).cache(dst_off),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < B) dst.store(t, dst_off + i, cplx{0.0, 0.0});
                });
    // Complex-double atomics: keep the functional accumulation order fixed
    // so rounding matches the sequential sweep bit for bit.
    auto cfg = LaunchCfg::for_elements("pf_atomic_hist", w_pad, 256, s);
    cfg.sequential = true;
    dev->launch(cfg,
                [&, ai, tau, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= w_pad) return;
                  const u64 index = (tau + i * ai) & mask;
                  const cplx v = sig_->load(t, index) *
                                 d_filter_time.load(t, i);
                  t.add_flops(8);
                  dst.atomic_add(t, dst_off + (i % B), v);
                });
  }

  /// Section IV.C's shared-memory alternative: per-block sub-histograms in
  /// on-chip memory, merged into the global buckets with atomics. The plan
  /// constructor guarantees B complex doubles fit the 48 KB shared memory
  /// (the configuration the paper shows is usually impossible).
  ///
  /// The simulator executes threads of a block consecutively, so the
  /// per-block sub-histogram lives in a closure-local array that is flushed
  /// (with traced global atomics) whenever the block index advances.
  void k_shared_histogram(std::size_t r, DeviceBuffer<cplx>& dst,
                          std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_zero", B, 256, s).cache(dst_off),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < B) dst.store(t, dst_off + i, cplx{0.0, 0.0});
                });
    std::vector<cplx> sub(B, cplx{});
    u32 current_block = 0;
    auto flush = [&](ThreadCtx& t) {
      for (std::size_t b = 0; b < B; ++b) {
        if (sub[b] != cplx{}) {
          dst.atomic_add(t, dst_off + b, sub[b]);
          sub[b] = cplx{};
        }
      }
    };
    // The closure-local sub-histogram emulates per-block shared memory by
    // relying on blocks executing in order — host-sequential by contract.
    auto cfg = LaunchCfg::for_elements("pf_shared_hist", w_pad, 256, s);
    cfg.sequential = true;
    dev->launch(cfg,
                [&, ai, tau](ThreadCtx& t) {
                  if (t.block_idx != current_block) {
                    flush(t);  // previous block's merge stage
                    current_block = t.block_idx;
                  }
                  const u64 i = t.global_id();
                  if (i >= w_pad) return;
                  const u64 index = (tau + i * ai) & mask;
                  const cplx v = sig_->load(t, index) *
                                 d_filter_time.load(t, i);
                  t.add_flops(8);
                  t.record_shared(2);  // shared-memory atomic update
                  sub[i % B] += v;
                });
    // Merge of the final block.
    dev->launch(LaunchCfg::for_elements("pf_shared_merge", B, 256, s),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  t.record_shared(1);
                  if (sub[i] != cplx{})
                    dst.atomic_add(t, dst_off + i, sub[i]);
                });
  }

  /// Ablation: binning without index mapping — the loop-carried index chain
  /// of Algorithm 1 admits no parallelism, so the whole loop runs on one
  /// thread (the paper's starting point).
  void k_serial_chain(std::size_t r, DeviceBuffer<cplx>& dst,
                      std::size_t dst_off, StreamId s) {
    const u64 ai = perms[r].ai, tau = perms[r].tau;
    dev->launch(LaunchCfg::for_elements("pf_zero", B, 256, s).cache(dst_off),
                [&, dst_off](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < B) dst.store(t, dst_off + i, cplx{0.0, 0.0});
                });
    LaunchCfg cfg;
    cfg.name = "pf_serial_chain";
    cfg.blocks = 1;
    cfg.threads_per_block = 1;
    cfg.stream = s;
    dev->launch(cfg, [&, ai, tau, dst_off](ThreadCtx& t) {
      u64 index = tau & mask;
      for (std::size_t i = 0; i < w_pad; ++i) {
        const cplx v =
            sig_->load(t, index) * d_filter_time.load(t, i);
        const std::size_t b = dst_off + (i % B);
        dst.store(t, b, dst.load(t, b) + v);
        t.add_flops(10);
        index = (index + ai) & mask;  // the dependent update
      }
    });
  }

  /// Step 4 baseline (Algorithm 3): sort & select on |bucket|^2 keys.
  /// Leaves the selected bucket indices in d_vals[0..cutoff).
  std::size_t cutoff_sort_select(std::size_t r, StreamId s) {
    dev->launch(LaunchCfg::for_elements("cutoff_keys", B, 256, s).cache(r),
                [&, r](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  t.add_flops(3);
                  d_keys.store(t, i, std::norm(buck_->load(t, r * B + i)));
                  d_vals.store(t, i, static_cast<u32>(i));
                });
    custhrust::sort_pairs_desc(*dev, d_keys, d_vals, opts.sort_algo, s);
    return p.cutoff();
  }

  /// Step 4 optimized (Algorithm 6): linear threshold selection. Leaves the
  /// selected indices in d_selected[0..count).
  std::size_t cutoff_fast_select(std::size_t r, StreamId s) {
    // RMS of this loop's buckets -> threshold (Section V.B: "same order as
    // the small noise coefficients").
    double norm2 = 0.0;
    {
      // View of loop r's buckets: reuse d_z as a staging copy to keep the
      // reduction primitive simple (one coalesced copy kernel).
      dev->launch(LaunchCfg::for_elements("cutoff_stage", B, 256, s).cache(r),
                  [&, r](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i < B) zb_->store(t, i, buck_->load(t, r * B + i));
                  });
      norm2 = custhrust::reduce_norm2(*dev, *zb_, d_norm, s);
    }
    const double thresh2 =
        opts.select_beta * opts.select_beta * norm2 / static_cast<double>(B);

    dev->launch(LaunchCfg::for_elements("select_reset", 1, 1, s).cache(0),
                [&](ThreadCtx& t) { d_sel_count.store(t, 0, 0); });
    // The atomic slot counter defines d_selected's layout; thread order
    // must stay fixed so the selected list is identical (and ascending)
    // under both host execution paths. B threads — negligible cost.
    auto cfg = LaunchCfg::for_elements("fast_select", B, 256, s);
    cfg.sequential = true;
    dev->launch(cfg,
                [&, r, thresh2](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i >= B) return;
                  t.add_flops(3);
                  if (std::norm(buck_->load(t, r * B + i)) >= thresh2) {
                    const u32 slot = d_sel_count.atomic_add(t, 0, u32{1});
                    if (slot < d_selected.size())
                      d_selected.store(t, slot, static_cast<u32>(i));
                  }
                });
    return std::min<std::size_t>(d_sel_count.host()[0], d_selected.size());
  }

  /// sFFT 2.0 Comb prefilter on the device: subsample + W-point FFT +
  /// sort&select per round, union the approved residues. (The embedded
  /// sort's kernels report under the cutoff step — a known attribution
  /// quirk of the per-step profile.)
  void run_comb(StreamId s) {
    const std::size_t W = comb_W;
    const std::size_t stride = n / W;
    const std::size_t keep = std::min(p.comb_keep(), W);
    dev->launch(LaunchCfg::for_elements("comb_clear", W, 256, s).cache(W),
                [&](ThreadCtx& t) {
                  const u64 i = t.global_id();
                  if (i < W) comb_approved_->store(t, i, 0);
                });
    for (const u64 tau : comb_taus) {
      dev->launch(
          LaunchCfg::for_elements("comb_subsample", W, 256, s).cache(tau),
                  [&, tau, stride](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= W) return;
                    d_comb_y.store(t, i,
                                   sig_->load(t, (i * stride + tau) &
                                                        mask));
                  });
      comb_fft->execute(d_comb_y, cufftsim::Direction::kForward, s);
      dev->launch(LaunchCfg::for_elements("comb_keys", W, 256, s).cache(W),
                  [&](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= W) return;
                    t.add_flops(3);
                    d_comb_keys.store(t, i, std::norm(d_comb_y.load(t, i)));
                    d_comb_vals.store(t, i, static_cast<u32>(i));
                  });
      custhrust::sort_pairs_desc(*dev, d_comb_keys, d_comb_vals,
                                 opts.sort_algo, s);
      dev->launch(LaunchCfg::for_elements("comb_mark", keep, 256, s),
                  [&, keep](ThreadCtx& t) {
                    const u64 i = t.global_id();
                    if (i >= keep) return;
                    comb_approved_->store(t, d_comb_vals.load(t, i), 1);
                  });
    }
  }

  /// Step 5, Algorithm 4: reverse hash + vote, one thread per selected
  /// bucket, atomics on the score array. In comb mode, only residues the
  /// prefilter approved receive votes.
  void k_loc_recover(std::size_t r, const DeviceBuffer<u32>& selected,
                     std::size_t count, StreamId s) {
    const u64 a = perms[r].a;
    const u64 width = n / B;
    const auto threshold = static_cast<u32>(p.threshold());
    const double nd = static_cast<double>(n), Bd = static_cast<double>(B);
    const bool has_comb = comb_W != 0;
    const u64 comb_mask = has_comb ? comb_W - 1 : 0;
    dev->launch(
        LaunchCfg::for_elements("loc_recover", count, 256, s),
        [&, a, width, threshold, nd, Bd, count, has_comb,
         comb_mask](ThreadCtx& t) {
          const u64 tid = t.global_id();
          if (tid >= count) return;
          const u32 j = selected.load(t, tid);
          const u64 low = static_cast<u64>(
              std::ceil((static_cast<double>(j) - 0.5) * nd / Bd) + nd) &
              mask;
          u64 loc = mod_mul(low, a, n);
          t.add_flops(8);
          for (u64 step = 0; step < width; ++step) {
            const bool approved =
                !has_comb ||
                comb_approved_->load(t, loc & comb_mask) != 0;
            if (approved) {
              const u32 old = score_->atomic_add(t, loc, u32{1});
              if (old + 1 == threshold) {
                const u32 slot = num_hits_->atomic_add(t, 0, u32{1});
                if (slot < d_hits.size())
                  d_hits.store(t, slot, static_cast<u32>(loc));
              }
            }
            loc += a;
            if (loc >= n) loc -= n;
          }
        });
  }

  /// Step 6, Algorithm 5 (plus the tau phase correction; DESIGN.md §6):
  /// one thread per candidate, median over the L loops.
  void k_estimate(std::size_t count, StreamId s) {
    const u64 n_div_B = n / B;
    dev->launch(
        LaunchCfg::for_elements("estimate", count, 256, s),
        [&, n_div_B, count](ThreadCtx& t) {
          const u64 tid = t.global_id();
          if (tid >= count) return;
          const u64 f = d_hits.load(t, tid);
          double re[kMaxLoops], im[kMaxLoops];
          for (std::size_t r = 0; r < L; ++r) {
            const u64 ai = d_ai.load(t, r);
            const u64 tau = d_tau.load(t, r);
            const u64 permuted = (ai * f) & mask;
            u64 hashed = permuted / n_div_B;
            i64 dist = static_cast<i64>(permuted % n_div_B);
            if (static_cast<u64>(dist) > n_div_B / 2) {
              hashed = (hashed + 1) % B;
              dist -= static_cast<i64>(n_div_B);
            }
            const u64 fi = static_cast<u64>(
                (static_cast<i64>(n) - dist) & static_cast<i64>(mask));
            const cplx g = d_filter_freq.load(t, fi);
            const cplx bucket = buck_->load(t, r * B + hashed);
            const double ang = -kTwoPi *
                               static_cast<double>((f * tau) & mask) /
                               static_cast<double>(n);
            const cplx v = bucket * static_cast<double>(n) *
                           cplx{std::cos(ang), std::sin(ang)} / g;
            t.add_flops(40);
            re[r] = v.real();
            im[r] = v.imag();
          }
          // Median per component (Algorithm 5 sorts and takes the middle;
          // Section III: real and imaginary parts separately).
          const std::size_t mid = (L - 1) / 2;
          std::nth_element(re, re + mid, re + L);
          std::nth_element(im, im + mid, im + L);
          t.add_flops(static_cast<double>(2 * L * 4));
          d_est.store(t, tid, cplx{re[mid], im[mid]});
        });
  }

  /// Timeline markers of one signal's phase boundaries (for the per-phase
  /// spans of GpuExecStats/GpuSignalStats). Recorded via
  /// Device::annotate_phase so a collected CaptureProfile carries the same
  /// named spans. In pipelined batches these are stream-scoped events on
  /// the signal's home stream, so each signal's spans come from its own
  /// work even when signals overlap.
  struct PhaseEvents {
    std::size_t start = 0, setup = 0, binned = 0, voted = 0, done = 0;
  };

  /// Scheduling context for one signal of a batch. The default is the
  /// serialized path: device-wide annotations and sync points, stream 0,
  /// primary buffers.
  struct SignalCtx {
    StreamId s = 0;          // home stream for this signal's kernels
    bool pipelined = false;  // stream events instead of device-wide syncs
    std::size_t parity = 0;  // which per-signal buffer set (bind_buffers)
    // Previous signal's `done` event: the back stage (cutoff/vote/
    // estimate) shares single-buffered state with the previous signal's
    // back stage and may not start before it drains. -1 = none.
    std::ptrdiff_t back_dep = -1;
  };

  /// Phase labels — shared by GpuExecStats::phase_span_ms keys and the
  /// capture profile's phase track.
  static constexpr const char* kPhaseTransfer = "a transfer+reset";
  static constexpr const char* kPhaseBin = "b comb+bin+fft";
  static constexpr const char* kPhaseVote = "c cutoff+vote";
  static constexpr const char* kPhaseEstimate = "d estimate+d2h";

  /// FFAST backend phase labels (same four boundary events, so the stats
  /// assembly is shape-identical; the names make the backend visible in a
  /// capture profile and in cusfft_phase_ms{phase=...}).
  static constexpr const char* kPhaseFfastBin = "b ffast subsample+fft";
  static constexpr const char* kPhaseFfastD2h = "c ffast d2h";
  static constexpr const char* kPhaseFfastPeel = "d ffast peel";

  /// The four phase-span keys of one signal under `algo`, in boundary
  /// order (start->setup->binned->voted->done).
  static std::array<const char*, 4> phase_labels(sfft::Algorithm algo) {
    if (algo == sfft::Algorithm::kFfast)
      return {kPhaseTransfer, kPhaseFfastBin, kPhaseFfastD2h, kPhaseFfastPeel};
    return {kPhaseTransfer, kPhaseBin, kPhaseVote, kPhaseEstimate};
  }

  /// The full kernel sequence for one signal, inside an open capture.
  /// execute() wraps it with stats; execute_many() calls it per signal,
  /// reusing every piece of device state. Under ctx.pipelined the whole
  /// sequence issues on home stream ctx.s with stream events replacing the
  /// device-wide sync points, so two signals on alternating streams (and
  /// alternating buffer parities) can overlap on the modeled timeline;
  /// functional execution is eager and host-sequential, so outputs are
  /// bit-identical regardless of ctx.
  SparseSpectrum exec_signal(std::span<const cplx> x, PhaseEvents& ev,
                             const SignalCtx& ctx) {
    if (p.algo == sfft::Algorithm::kFfast)
      return exec_signal_ffast(x, ev, ctx);
    cusim::Device& dev = *this->dev;
    if (x.size() != n)
      throw std::invalid_argument("GpuPlan::execute: signal size mismatch");
    // Scope cacheable launches to this plan's parameter draw. A device
    // shared by several plans switches domains here; records persist per
    // domain, so interleaved plans still replay their own captures.
    dev.set_graph_domain(graph_salt);
    bind_buffers(ctx.parity);
    const StreamId hs = ctx.s;
    auto annotate = [&](const char* name) {
      return ctx.pipelined ? dev.annotate_phase(name, hs)
                           : dev.annotate_phase(name);
    };
    ev.start = annotate(kPhaseTransfer);

    // Input transfer (H2D). When excluded from the modeled time
    // (GPU-resident comparisons, Fig. 5a-d) the data still lands in device
    // memory.
    if (opts.include_transfer) {
      dev.upload(*sig_, x, hs);
      // No kernel may consume the signal mid-transfer. On a pipelined home
      // stream FIFO order already guarantees that; serialized keeps the
      // device-wide sync.
      if (!ctx.pipelined) dev.sync_point();
    } else {
      std::copy(x.begin(), x.end(), sig_->host().begin());
    }

    // Reset per-signal state.
    dev.launch(LaunchCfg::for_elements("score_clear", n, 256, hs).cache(n),
               [&](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i < n) score_->store(t, i, 0);
               });
    dev.launch(LaunchCfg::for_elements("hits_reset", 1, 1, hs).cache(0),
               [&](ThreadCtx& t) { num_hits_->store(t, 0, 0); });

    ev.setup = annotate(kPhaseBin);

    // ---- sFFT 2.0 Comb prefilter (optional) ----
    if (comb_W != 0) {
      run_comb(hs);
      if (!ctx.pipelined) dev.sync_point();
    }

    // ---- Steps 1-3: binning + subsampled FFT for all L loops ----
    // Pipelined: `gate` is the event each fan-out onto a chunk stream must
    // wait behind — initially everything this signal has issued so far,
    // advanced past each loop's combine so loop r+1's remaps cannot start
    // before loop r's chunks are consumed (the barrier gave that for free).
    std::size_t gate = ev.setup;
    for (std::size_t r = 0; r < L; ++r) {
      DeviceBuffer<cplx>& dst = opts.batched_fft ? *buck_ : *zb_;
      const std::size_t dst_off = opts.batched_fft ? r * B : 0;

      switch (opts.binning) {
        case Binning::kSerialChain:
          k_serial_chain(r, dst, dst_off, hs);
          break;
        case Binning::kAsyncTransform: {
          // Fig. 4: remap(c) -> execute(c) on stream c%32; chunks pipeline.
          const std::size_t nstreams = std::min(rounds, streams.size());
          for (std::size_t c = 0; c < rounds; ++c) {
            const StreamId s = streams[c % streams.size()];
            if (ctx.pipelined && c < nstreams) dev.wait_event(s, gate);
            k_remap(r, c, s);
            k_execute_chunk(c, s);
          }
          if (ctx.pipelined) {
            // Join the fan-out back onto the home stream (stream events
            // instead of a device-wide sync) before combining.
            for (std::size_t c = 0; c < nstreams; ++c)
              dev.wait_event(hs, dev.record_event(streams[c]));
          } else {
            dev.sync_point();
          }
          k_combine(dst, dst_off, hs);
          if (ctx.pipelined) gate = dev.record_event(hs);
          break;
        }
        case Binning::kLoopPartition:
          k_perm_filter_partition(r, dst, dst_off, hs);
          break;
        case Binning::kGlobalAtomicHist:
          k_atomic_histogram(r, dst, dst_off, hs);
          break;
        case Binning::kSharedHist:
          k_shared_histogram(r, dst, dst_off, hs);
          break;
      }

      if (!opts.batched_fft) {
        fft_single->execute(*zb_, cufftsim::Direction::kForward, hs);
        dev.launch(LaunchCfg::for_elements("bucket_copy", B, 256, hs).cache(r),
                   [&, r](ThreadCtx& t) {
                     const u64 i = t.global_id();
                     if (i < B)
                       buck_->store(t, r * B + i, zb_->load(t, i));
                   });
      }
    }
    if (opts.batched_fft) {
      // All loops binned before the single batched FFT: home-stream FIFO
      // covers it when pipelined.
      if (!ctx.pipelined) dev.sync_point();
      fft_batched->execute(*buck_, cufftsim::Direction::kForward, hs);
    }
    if (!ctx.pipelined) dev.sync_point();
    ev.binned = annotate(kPhaseVote);

    // The back stage (cutoff/vote/estimate) reuses single-buffered state
    // (d_hits, sort/select scratch) that the previous signal's back stage
    // may still be draining — chain behind its `done` event.
    if (ctx.pipelined && ctx.back_dep >= 0)
      dev.wait_event(hs, static_cast<std::size_t>(ctx.back_dep));

    // ---- Steps 4-5 per location loop: cutoff + reverse hash voting ----
    for (std::size_t r = 0; r < p.loops_loc; ++r) {
      if (opts.fast_selection) {
        const std::size_t count = cutoff_fast_select(r, hs);
        k_loc_recover(r, d_selected, count, hs);
      } else {
        const std::size_t count = cutoff_sort_select(r, hs);
        k_loc_recover(r, d_vals, count, hs);
      }
    }
    if (!ctx.pipelined) dev.sync_point();
    ev.voted = annotate(kPhaseEstimate);

    // ---- Step 6: estimation ----
    const std::size_t num_hits =
        std::min<std::size_t>(num_hits_->host()[0], d_hits.size());
    // Canonicalize candidate order: hits arrive in vote-completion order,
    // which under the block-parallel host path is a nondeterministic
    // permutation of the same set. Sorting (host-side, untraced) makes the
    // estimation kernel's functional state and traced access pattern
    // identical whichever launch path ran.
    std::sort(d_hits.host().begin(), d_hits.host().begin() + num_hits);
    if (num_hits > 0) k_estimate(num_hits, hs);

    // ---- D2H of the sparse result ----
    dev.note_transfer("d2h", static_cast<double>(num_hits) * (4 + 16), hs);
    if (ctx.pipelined) {
      ev.done = dev.record_event(hs);
      dev.close_phase(hs, ev.done);
    } else {
      ev.done = dev.record_event();
    }
    SparseSpectrum out;
    out.reserve(num_hits);
    for (std::size_t i = 0; i < num_hits; ++i)
      out.push_back({d_hits.host()[i], d_est.host()[i]});
    std::sort(out.begin(), out.end(),
              [](const SparseCoef& a, const SparseCoef& b) {
                return a.loc < b.loc;
              });
    return out;
  }

  /// The FFAST backend's sequence for one signal: per-stage subsample
  /// kernels + batched stage FFTs on the device, then D2H of the (tiny)
  /// plane buffers and the host-side peeling decode — the decoder is
  /// branch-heavy and data-dependent, exactly the shape Section IV argues
  /// off the GPU, and at O(sum_s F_s) buckets it is not the bottleneck.
  /// Honors the same SignalCtx contract as exec_signal; the back "stage"
  /// (d2h + peel) touches only parity-local state, so pipelined signals
  /// need no back_dep chaining.
  SparseSpectrum exec_signal_ffast(std::span<const cplx> x, PhaseEvents& ev,
                                   const SignalCtx& ctx) {
    cusim::Device& dev = *this->dev;
    if (x.size() != n)
      throw std::invalid_argument("GpuPlan::execute: signal size mismatch");
    dev.set_graph_domain(graph_salt);
    bind_buffers(ctx.parity);
    const StreamId hs = ctx.s;
    auto annotate = [&](const char* name) {
      return ctx.pipelined ? dev.annotate_phase(name, hs)
                           : dev.annotate_phase(name);
    };
    ev.start = annotate(kPhaseTransfer);
    if (opts.include_transfer) {
      dev.upload(*sig_, x, hs);
      if (!ctx.pipelined) dev.sync_point();
    } else {
      std::copy(x.begin(), x.end(), sig_->host().begin());
    }

    ev.setup = annotate(kPhaseFfastBin);
    // Plane c of stage s gathers x[(m * (n/F_s) + c) mod n] — the
    // shift-major layout sfft::FfastPlan uses, one kernel per stage
    // covering all kFfastShifts planes. The gathers are strided, but each
    // stage reads only 6*F_s of the n samples.
    for (std::size_t si = 0; si < ffast_stages.size(); ++si) {
      const std::size_t bins = ffast_stages[si].bins;
      const std::size_t step = n / bins;
      const std::size_t elems = sfft::kFfastShifts * bins;
      dev.launch(
          LaunchCfg::for_elements("ffast_subsample", elems, 256, hs)
              .cache(si),
          [&, si, bins, step, elems](ThreadCtx& t) {
            const u64 i = t.global_id();
            if (i >= elems) return;
            const u64 c = i / bins, m = i % bins;
            (*ffast_)[si].store(t, i,
                                sig_->load(t, (m * step + c) & mask));
          });
      ffast_ffts[si]->execute((*ffast_)[si], cufftsim::Direction::kForward,
                              hs);
    }
    if (!ctx.pipelined) dev.sync_point();
    ev.binned = annotate(kPhaseFfastD2h);

    // ---- D2H of every stage's planes ----
    const sfft::FfastStage& last = ffast_stages.back();
    const std::size_t total = last.offset + sfft::kFfastShifts * last.bins;
    dev.note_transfer("d2h", static_cast<double>(total) * sizeof(cplx), hs);
    std::vector<cplx> planes(total);
    for (std::size_t si = 0; si < ffast_stages.size(); ++si) {
      const auto host = (*ffast_)[si].host();
      std::copy(host.begin(), host.end(),
                planes.begin() +
                    static_cast<std::ptrdiff_t>(ffast_stages[si].offset));
    }
    ev.voted = annotate(kPhaseFfastPeel);

    // ---- Host-side peeling decode (no device work: the phase span is
    // ~0 on the modeled timeline; the decode cost shows up in host_ms) ----
    SparseSpectrum out = sfft::ffast_peel(planes, ffast_stages, n);
    if (ctx.pipelined) {
      ev.done = dev.record_event(hs);
      dev.close_phase(hs, ev.done);
    } else {
      ev.done = dev.record_event();
    }
    return out;
  }
};

GpuPlan::GpuPlan(cusim::Device& dev, sfft::Params params, Options opts)
    : impl_(std::make_unique<Impl>()) {
  params.validate();
  if (params.algo == sfft::Algorithm::kAuto)
    throw std::invalid_argument(
        "GpuPlan: Algorithm::kAuto must be resolved before plan "
        "construction (MultiGpuPlan::execute_mixed resolves it per signal; "
        "see cusfft/autopick.hpp)");
  Impl& im = *impl_;
  im.dev = &dev;
  im.p = params;
  im.opts = opts;
  im.n = params.n;
  im.mask = im.n - 1;

  if (params.algo == sfft::Algorithm::kFfast) {
    // FFAST plan: the stage chain, one plane buffer + batched FFT plan per
    // stage, and the signal buffer. None of the cusFFT filter /
    // permutation / vote state exists on this plan — the backends share
    // only the Params and the device.
    im.ffast_stages = sfft::ffast_stage_chain(im.n, params.ffast_bins(),
                                              params.ffast_stages);
    im.B = im.ffast_stages.front().bins;
    {
      const double cxb = sizeof(cplx);
      double bytes = im.n * cxb;  // signal
      for (const auto& st : im.ffast_stages)
        bytes += 2.0 * sfft::kFfastShifts * st.bins * cxb;  // planes + FFT
      if (bytes > static_cast<double>(dev.spec().global_mem_bytes))
        throw std::runtime_error(
            "GpuPlan: plan needs " + std::to_string(bytes / 1e9) +
            " GB device memory, exceeding the device's " +
            std::to_string(dev.spec().global_mem_bytes / 1e9) + " GB");
    }
    // The FFAST graph domain: the algorithm tag plus everything that
    // shapes a cacheable kernel (n and the stage chain). Deterministic —
    // no permutation draws to fold in.
    SaltHash sh;
    sh.mix(static_cast<u64>(params.algo));
    sh.mix(im.n);
    for (const auto& st : im.ffast_stages) sh.mix(st.bins);
    im.graph_salt = sh.h;

    im.d_signal = DeviceBuffer<cplx>(im.n);
    for (const auto& st : im.ffast_stages) {
      im.d_ffast.emplace_back(sfft::kFfastShifts * st.bins);
      im.ffast_ffts.push_back(std::make_unique<cufftsim::Plan>(
          dev, st.bins, sfft::kFfastShifts));
    }
    im.bind_buffers(0);
    return;
  }

  im.B = params.buckets();
  im.L = params.total_loops();
  if (im.L > kMaxLoops)
    throw std::invalid_argument("GpuPlan: at most 32 total loops supported");

  // Section IV.C: a per-block shared-memory sub-histogram needs B complex
  // doubles of the 48 KB usable shared memory — refuse when it cannot fit
  // (the paper's argument for the loop-partition kernel).
  if (opts.binning == Binning::kSharedHist &&
      im.B * sizeof(cplx) > dev.spec().shared_mem_per_sm - 16 * 1024)
    throw std::invalid_argument(
        "GpuPlan: B complex-double sub-histogram does not fit shared memory "
        "(Section IV.C) — use loop partition instead");

  // Device-memory budget (cudaMalloc would fail past the Table-I 6 GB).
  const auto [w_est, w_pad_est] =
      signal::flat_filter_sizes(im.n, im.B, params.filter);
  {
    const double cxb = sizeof(cplx);
    double bytes = im.n * cxb;            // signal
    bytes += im.n * cxb;                  // filter frequency response
    bytes += w_pad_est * cxb;             // filter taps
    bytes += im.L * im.B * cxb;           // bucket sets
    bytes += im.n * 4.0;                  // score
    bytes += (opts.batched_fft ? im.L : 1) * im.B * cxb;  // FFT work
    if (opts.binning == Binning::kAsyncTransform)
      bytes += 2.0 * w_pad_est * cxb;     // chunks + partials
    if (bytes > static_cast<double>(dev.spec().global_mem_bytes))
      throw std::runtime_error(
          "GpuPlan: plan needs " + std::to_string(bytes / 1e9) +
          " GB device memory, exceeding the device's " +
          std::to_string(dev.spec().global_mem_bytes / 1e9) + " GB");
  }

  // Shared immutable filter from the plan cache: repeated plans with the
  // same (n, B, window) skip the two plan-time length-n FFTs.
  const std::shared_ptr<const signal::FlatFilter> filter =
      signal::get_flat_filter(im.n, im.B, params.filter);
  im.w_pad = filter->time.size();
  im.rounds = im.w_pad / im.B;
  {
    Rng rng(params.seed);
    im.perms = sfft::draw_loop_perms(im.n, im.L, rng);
    if (params.comb) {
      im.comb_taus.resize(params.comb_rounds);
      for (auto& t : im.comb_taus) t = rng.next_below(im.n);
    }
  }
  {
    // Captured-graph domain salt: every input that shapes a cacheable
    // kernel's access pattern. Two plans replay each other's records only
    // when all of it matches (kernel shapes, permutation draws, option
    // toggles); anything else is namespaced apart.
    SaltHash sh;
    sh.mix(static_cast<u64>(params.algo));
    sh.mix(im.n);
    sh.mix(im.B);
    sh.mix(im.L);
    sh.mix(im.w_pad);
    sh.mix(static_cast<u64>(opts.binning));
    sh.mix(static_cast<u64>(opts.sort_algo));
    sh.mix(opts.batched_fft ? 1 : 0);
    sh.mix(opts.fast_selection ? 1 : 0);
    for (const auto& perm : im.perms) {
      sh.mix(perm.ai);
      sh.mix(perm.tau);
    }
    for (const u64 t : im.comb_taus) sh.mix(t);
    sh.mix(params.comb ? params.comb_w() : 0);
    im.graph_salt = sh.h;
  }
  im.hits_cap = std::min<std::size_t>(
      im.n, std::max<std::size_t>(1, params.loops_loc * params.cutoff() *
                                         (im.n / im.B)));

  // Device allocations + one-time uploads (plan setup, outside captures).
  im.d_signal = DeviceBuffer<cplx>(im.n);
  im.d_filter_time = DeviceBuffer<cplx>(im.w_pad);
  im.d_filter_freq = DeviceBuffer<cplx>(im.n);
  std::copy(filter->time.begin(), filter->time.end(),
            im.d_filter_time.host().begin());
  std::copy(filter->freq.begin(), filter->freq.end(),
            im.d_filter_freq.host().begin());
  // Once device-resident the plan needs no host copy; the cache keeps one
  // shared host instance per (n, B, window) for later plans.
  im.d_ai = DeviceBuffer<u64>(im.L);
  im.d_a = DeviceBuffer<u64>(im.L);
  im.d_tau = DeviceBuffer<u64>(im.L);
  for (std::size_t r = 0; r < im.L; ++r) {
    im.d_ai.host()[r] = im.perms[r].ai;
    im.d_a.host()[r] = im.perms[r].a;
    im.d_tau.host()[r] = im.perms[r].tau;
  }
  im.d_buckets = DeviceBuffer<cplx>(im.L * im.B);
  if (opts.binning == Binning::kAsyncTransform) {
    im.d_chunks = DeviceBuffer<cplx>(im.rounds * im.B);
    im.d_partial = DeviceBuffer<cplx>(im.rounds * im.B);
  }
  im.d_score = DeviceBuffer<u32>(im.n);
  im.d_hits = DeviceBuffer<u32>(im.hits_cap);
  im.d_num_hits = DeviceBuffer<u32>(1);
  im.d_est = DeviceBuffer<cplx>(im.hits_cap);
  if (opts.fast_selection) {
    im.d_selected = DeviceBuffer<u32>(im.B);
    im.d_sel_count = DeviceBuffer<u32>(1);
    im.d_norm = DeviceBuffer<double>(im.B);
  } else {
    im.d_keys = DeviceBuffer<double>(im.B);
    im.d_vals = DeviceBuffer<u32>(im.B);
  }
  for (unsigned i = 0; i < dev.spec().max_concurrent_kernels; ++i)
    im.streams.push_back(dev.create_stream());
  if (opts.batched_fft) {
    im.fft_batched = std::make_unique<cufftsim::Plan>(dev, im.B, im.L);
  } else {
    im.fft_single = std::make_unique<cufftsim::Plan>(dev, im.B, 1);
  }
  im.d_z = DeviceBuffer<cplx>(im.B);
  if (params.comb) {
    im.comb_W = params.comb_w();
    im.d_comb_approved = DeviceBuffer<u32>(im.comb_W);
    im.d_comb_y = DeviceBuffer<cplx>(im.comb_W);
    im.d_comb_keys = DeviceBuffer<double>(im.comb_W);
    im.d_comb_vals = DeviceBuffer<u32>(im.comb_W);
    im.comb_fft = std::make_unique<cufftsim::Plan>(dev, im.comb_W, 1);
  }
  im.bind_buffers(0);
}

GpuPlan::~GpuPlan() = default;
GpuPlan::GpuPlan(GpuPlan&&) noexcept = default;
GpuPlan& GpuPlan::operator=(GpuPlan&&) noexcept = default;

const sfft::Params& GpuPlan::params() const { return impl_->p; }
const Options& GpuPlan::options() const { return impl_->opts; }
std::size_t GpuPlan::buckets() const { return impl_->B; }

SparseSpectrum GpuPlan::execute(std::span<const cplx> x,
                                GpuExecStats* stats) {
  Impl& im = *impl_;
  cusim::Device& dev = *im.dev;

  WallTimer wall;
  dev.begin_capture();
  Impl::PhaseEvents ev;
  SparseSpectrum out = im.exec_signal(x, ev, Impl::SignalCtx{});

  // Stats are assembled whether or not the caller asked for them: the
  // always-on registry records every execute. The event queries hit the
  // cached simulate() the makespan already ran, so the overhead is a few
  // map folds per execute, not a re-simulation.
  GpuExecStats local;
  GpuExecStats& st = stats != nullptr ? *stats : local;
  st.model_ms = dev.elapsed_model_ms();
  st.host_ms = wall.ms();
  st.candidates = out.size();
  st.algo = im.p.algo;
  st.step_model_ms.clear();
  for (const auto& [name, rep] : dev.report())
    st.step_model_ms[step_of_kernel(name)] += rep.solo_s * 1e3;
  // Overlap-aware phase spans from the timeline events.
  const auto labels = Impl::phase_labels(im.p.algo);
  const double t0 = dev.event_time_ms(ev.start);
  const double t1 = dev.event_time_ms(ev.setup);
  const double t2 = dev.event_time_ms(ev.binned);
  const double t3 = dev.event_time_ms(ev.voted);
  st.phase_span_ms.clear();
  st.phase_span_ms[labels[0]] = t1 - t0;
  st.phase_span_ms[labels[1]] = t2 - t1;
  st.phase_span_ms[labels[2]] = t3 - t2;
  st.phase_span_ms[labels[3]] = st.model_ms - t3;
  st.to_metrics(cusim::MetricsRegistry::global());
  return out;
}

namespace {

/// kAuto resolution: pipelined for real batches unless the environment
/// forces serialization (CUSFFT_PIPELINE=0 — CI's determinism matrix and
/// A/B baselines use it).
BatchMode resolve_batch_mode(BatchMode mode, std::size_t batch) {
  if (mode != BatchMode::kAuto) return mode;
  // Re-read per resolution (one getenv): latching the first value in a
  // function-local static made later setenv("CUSFFT_PIPELINE", ...) calls
  // silently ineffective for embedders and tests.
  const char* e = std::getenv("CUSFFT_PIPELINE");
  const bool env_off = e != nullptr && e[0] == '0' && e[1] == '\0';
  return (batch >= 2 && !env_off) ? BatchMode::kPipelined
                                  : BatchMode::kSerialized;
}

}  // namespace

std::vector<SparseSpectrum> GpuPlan::execute_many(
    std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
    BatchMode mode) {
  return run_batch(xs, stats, mode, /*fresh_capture=*/true);
}

std::vector<SparseSpectrum> GpuPlan::execute_many_in_capture(
    std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
    BatchMode mode) {
  return run_batch(xs, stats, mode, /*fresh_capture=*/false);
}

std::vector<SparseSpectrum> GpuPlan::run_batch(
    std::span<const std::span<const cplx>> xs, GpuBatchStats* stats,
    BatchMode mode, bool fresh_capture) {
  Impl& im = *impl_;
  cusim::Device& dev = *im.dev;
  const bool pipelined =
      resolve_batch_mode(mode, xs.size()) == BatchMode::kPipelined;

  WallTimer wall;
  // Alt-parity buffers and home streams are plan state: allocate them
  // before the capture opens so a warm plan's capture still shows a zero
  // pool delta.
  if (pipelined) im.ensure_pipeline_state();
  // One capture for the whole batch: every device buffer, the uploaded
  // filter, the cuFFT-sim plans and the stream pool are reused across
  // signals, so per-signal cost is purely the kernel sequence. The
  // in-capture variant appends to an already-open capture instead —
  // mixed-shape shards run several plans' batches in one capture, so
  // opening a fresh one here would erase the earlier shape groups.
  if (fresh_capture) dev.begin_capture();
  std::vector<SparseSpectrum> out;
  out.reserve(xs.size());
  std::size_t candidates = 0;
  std::vector<Impl::PhaseEvents> evs(xs.size());
  if (pipelined) {
    // Two-stage software pipeline over two home streams: signal i+1's
    // transfer + reset + binning (the front stage, on the other stream and
    // buffer parity) overlaps signal i's cutoff/vote/estimate (the back
    // stage). Fronts chain on the previous front's `binned` event (they
    // share the chunk/FFT scratch); backs chain on the previous back's
    // `done` event (they share the hits/sort scratch). See DESIGN.md for
    // the dependency graph.
    std::ptrdiff_t front_done = -1, prev_done = -1;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      Impl::SignalCtx ctx;
      ctx.pipelined = true;
      ctx.parity = i & 1;
      ctx.s = im.home_streams[i & 1];
      ctx.back_dep = prev_done;
      if (front_done >= 0)
        dev.wait_event(ctx.s, static_cast<std::size_t>(front_done));
      out.push_back(im.exec_signal(xs[i], evs[i], ctx));
      candidates += out.back().size();
      front_done = static_cast<std::ptrdiff_t>(evs[i].binned);
      prev_done = static_cast<std::ptrdiff_t>(evs[i].done);
    }
    im.bind_buffers(0);  // leave the plan on the primary (serialized) set
  } else {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out.push_back(im.exec_signal(xs[i], evs[i], Impl::SignalCtx{}));
      candidates += out.back().size();
      // Signals are serialized on the device timeline.
      dev.sync_point();
    }
  }

  // Stats are assembled even when the caller passes nullptr so the
  // always-on registry sees every batch. Publication happens only for
  // fresh captures: an in-capture batch is one shard of a fleet batch,
  // and the fleet publishes once through GpuFleetStats::to_metrics with
  // the correct per-device attribution — recording here too would count
  // every fleet signal twice.
  GpuBatchStats local;
  GpuBatchStats& st = stats != nullptr ? *stats : local;
  st.model_ms = dev.elapsed_model_ms();
  st.host_ms = wall.ms();
  st.signals = xs.size();
  st.candidates = candidates;
  st.pipelined = pipelined;
  st.algo = im.p.algo;
  st.per_signal.clear();
  st.per_signal.reserve(xs.size());
  const auto labels = Impl::phase_labels(im.p.algo);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Each signal's window from its own events — coherent under overlap.
    const double t0 = dev.event_time_ms(evs[i].start);
    const double t1 = dev.event_time_ms(evs[i].setup);
    const double t2 = dev.event_time_ms(evs[i].binned);
    const double t3 = dev.event_time_ms(evs[i].voted);
    const double t4 = dev.event_time_ms(evs[i].done);
    GpuSignalStats sig;
    sig.start_ms = t0;
    sig.end_ms = t4;
    sig.candidates = out[i].size();
    sig.algo = im.p.algo;
    sig.phase_span_ms[labels[0]] = t1 - t0;
    sig.phase_span_ms[labels[1]] = t2 - t1;
    sig.phase_span_ms[labels[2]] = t3 - t2;
    sig.phase_span_ms[labels[3]] = t4 - t3;
    st.per_signal.push_back(std::move(sig));
  }
  if (fresh_capture) st.to_metrics(cusim::MetricsRegistry::global());
  return out;
}

void observe_signal_metrics(cusim::MetricsRegistry& reg,
                            const GpuSignalStats& sig, std::size_t device) {
  using cusim::MetricsRegistry;
  reg.histogram(MetricsRegistry::label("cusfft_signal_latency_ms", "device",
                                       std::to_string(device)))
      .observe(sig.end_ms - sig.start_ms);
  for (const auto& [phase, span_ms] : sig.phase_span_ms)
    reg.histogram(MetricsRegistry::label("cusfft_phase_ms", "phase", phase))
        .observe(span_ms);
}

void GpuExecStats::to_metrics(cusim::MetricsRegistry& reg) const {
  using cusim::MetricsRegistry;
  reg.counter("cusfft_executes_total").inc();
  reg.counter(MetricsRegistry::label("cusfft_algo_executes_total", "algo",
                                     sfft::to_string(algo)))
      .inc();
  reg.counter("cusfft_candidates_total").add(candidates);
  reg.histogram("cusfft_execute_model_ms").observe(model_ms);
  reg.histogram("cusfft_execute_host_ms").observe(host_ms);
  // A solo execute is one signal on (implicit) device 0, so it feeds the
  // same per-device latency family the fleet paths populate.
  reg.histogram(
         MetricsRegistry::label("cusfft_signal_latency_ms", "device", "0"))
      .observe(model_ms);
  for (const auto& [phase, span_ms] : phase_span_ms)
    reg.histogram(MetricsRegistry::label("cusfft_phase_ms", "phase", phase))
        .observe(span_ms);
}

void GpuBatchStats::to_metrics(cusim::MetricsRegistry& reg,
                               std::size_t device) const {
  reg.counter("cusfft_batches_total").inc();
  if (pipelined) reg.counter("cusfft_batches_pipelined_total").inc();
  reg.counter("cusfft_signals_total").add(signals);
  reg.counter(cusim::MetricsRegistry::label("cusfft_algo_signals_total",
                                            "algo", sfft::to_string(algo)))
      .add(signals);
  reg.counter("cusfft_candidates_total").add(candidates);
  reg.histogram("cusfft_batch_model_ms").observe(model_ms);
  reg.histogram("cusfft_batch_host_ms").observe(host_ms);
  for (const GpuSignalStats& sig : per_signal)
    observe_signal_metrics(reg, sig, device);
}

const char* step_of_kernel(const std::string& k) {
  auto starts = [&](const char* pre) { return k.rfind(pre, 0) == 0; };
  if (starts("ffast_")) return sfft::ffast_step::kSubsample;
  if (starts("comb_")) return sfft::step::kComb;
  if (starts("pf_")) return sfft::step::kPermFilter;
  if (starts("cufft_") || starts("bucket_copy")) return sfft::step::kSubFft;
  if (starts("cutoff_") || starts("radix_") || starts("bitonic_") ||
      starts("scan_") || starts("reduce_") || starts("fast_select") ||
      starts("select_reset"))
    return sfft::step::kCutoff;
  if (starts("loc_recover") || starts("score_clear") || starts("hits_reset"))
    return sfft::step::kLocRecover;
  if (starts("estimate")) return sfft::step::kEstimate;
  if (starts("h2d") || starts("d2h")) return "0 transfer";
  return "other";
}

}  // namespace cusfft::gpu
