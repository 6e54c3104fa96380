#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/modmath.hpp"

namespace cusfft::fft {

namespace {

/// The first stages (half-width h < kBlock) run one cache-resident block
/// of kBlock values (64 KiB) at a time; later stages sweep the whole array
/// in chunks of kChunk butterflies. Butterflies within a stage are
/// independent, so neither order changes a result.
constexpr std::size_t kBlock = std::size_t{1} << 12;
constexpr std::size_t kChunk = 256;

/// Twiddles of a size-n radix-2 plan, in one vector. The n/2 roots
/// w^j = exp(sign * 2*pi*i * j / n) are computed once, with the cos/sin of
/// the same angles as a length-n table, and stored contiguously at offset
/// `roots`; butterfly j of the stage of half-width h multiplies by root
/// j * n/2h. The blocked stages also get stage-by-stage copies, stage h at
/// entries [h, 2h), so their reads are contiguous. For n <= kBlock the
/// roots are the last stage's entries [n/2, n); otherwise they follow the
/// kBlock entries of the blocked stages. Every entry is an exact copy of a
/// root.
struct Twiddles {
  cvec tw;
  std::size_t roots = 0;
};

Twiddles make_twiddles(std::size_t n, double sign) {
  const std::size_t half = n / 2;
  Twiddles t;
  t.roots = n > kBlock ? kBlock : half;
  t.tw.resize(t.roots + half);
  for (std::size_t j = 0; j < half; ++j) {
    const double ang = sign * kTwoPi * static_cast<double>(j) /
                       static_cast<double>(n);
    t.tw[t.roots + j] = cplx{std::cos(ang), std::sin(ang)};
  }
  for (std::size_t h = 1; h < std::min(kBlock, half); h <<= 1)
    for (std::size_t j = 0; j < h; ++j)
      t.tw[h + j] = t.tw[t.roots + j * (half / h)];
  return t;
}

/// Swaps a[i] and a[rev(i)] for every i in [begin, end) with i < rev(i),
/// where rev reverses the low logn bits. rev(i) advances by a reversed
/// increment (amortized O(1)), so no permutation table is kept.
void bit_reverse(cplx* a, std::size_t n, std::size_t begin,
                 std::size_t end) {
  const unsigned logn = log2_floor(n);
  std::size_t r = 0;
  for (unsigned b = 0; b < logn; ++b)
    if (begin >> b & 1) r |= std::size_t{1} << (logn - 1 - b);
  for (std::size_t i = begin; i < end; ++i) {
    if (i < r) std::swap(a[i], a[r]);
    std::size_t bit = n >> 1;
    while (r & bit) {
      r ^= bit;
      bit >>= 1;
    }
    r |= bit;
  }
}

/// One radix-2 butterfly on interleaved doubles: v = q * w, then
/// (p, q) = (p + v, p - v). The product is spelled the way GCC expands
/// std::complex multiplication: ac - bd and ad + bc, and, only when both
/// come out NaN, the full operator* with its C99 Annex G recovery. The
/// build targets baseline x86-64 (no -march), which has no FMA to contract
/// into, so every result is bit-identical to the std::complex butterfly.
inline void butterfly(double* p, double* q, const double* w) {
  const double qr = q[0], qi = q[1], wr = w[0], wi = w[1];
  double vr = qr * wr - qi * wi;
  double vi = qr * wi + qi * wr;
  if (std::isnan(vr) && std::isnan(vi)) [[unlikely]] {
    const cplx v = cplx{qr, qi} * cplx{wr, wi};
    vr = v.real();
    vi = v.imag();
  }
  const double ur = p[0], ui = p[1];
  p[0] = ur + vr;
  p[1] = ui + vi;
  q[0] = ur - vr;
  q[1] = ui - vi;
}

/// Butterflies j in [j_begin, j_end) of every group of the stage of
/// half-width h over `len` interleaved complex values at d: group g pairs
/// values g*2h + j and g*2h + j + h, with twiddle w[j * stride]. Strided
/// twiddles are gathered kChunk at a time and reused by every group.
/// Every path runs its butterflies through this one out-of-line function:
/// when both addends of a sum are NaN, which one's sign and payload survive
/// depends on the operand order the compiler picks, so one copy of the code
/// keeps the serial and parallel paths bit-identical on NaN inputs too.
[[gnu::noinline]] void stage(double* d, std::size_t len, std::size_t h,
                             std::size_t j_begin, std::size_t j_end,
                             const double* w, std::size_t stride) {
  double gathered[2 * kChunk];
  for (std::size_t j0 = j_begin; j0 < j_end; j0 += kChunk) {
    const std::size_t count = std::min(kChunk, j_end - j0);
    const double* wj = w + 2 * j0;
    if (stride != 1) {
      for (std::size_t j = 0; j < count; ++j) {
        gathered[2 * j] = w[2 * (j0 + j) * stride];
        gathered[2 * j + 1] = w[2 * (j0 + j) * stride + 1];
      }
      wj = gathered;
    }
    for (std::size_t g = 0; g < len; g += 2 * h) {
      double* p = d + 2 * (g + j0);
      double* q = p + 2 * h;
      for (std::size_t j = 0; j < count; ++j)
        butterfly(p + 2 * j, q + 2 * j, wj + 2 * j);
    }
  }
}

}  // namespace

struct Plan::Impl {
  std::size_t n = 0;
  Direction dir = Direction::kForward;
  bool pow2 = false;

  // --- power-of-two path ---
  Twiddles twiddles;

  // --- Bluestein path (arbitrary n) ---
  std::size_t m = 0;            // padded power-of-two size >= 2n-1
  cvec chirp;                   // c[t] = exp(sign*pi*i*t^2/n), length n
  cvec bfreq;                   // FFT_m of the chirp-conjugate kernel
  std::unique_ptr<Plan> fwd_m;  // forward plan of size m
  std::unique_ptr<Plan> inv_m;  // inverse plan of size m

  double sign() const { return dir == Direction::kForward ? -1.0 : 1.0; }

  void scale_inverse(double* d, std::size_t begin, std::size_t end) const {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 2 * begin; i < 2 * end; ++i) d[i] *= inv_n;
  }

  /// The blocked stages h < blk on block [b, b + blk), reading the
  /// stage-by-stage copies (contiguous).
  void block_stages(double* d, std::size_t b, std::size_t blk) const {
    const double* tw = reinterpret_cast<const double*>(twiddles.tw.data());
    for (std::size_t h = 1; h < blk; h <<= 1)
      stage(d + 2 * b, blk, h, 0, h, tw + 2 * h, 1);
  }

  /// Butterflies [j_begin, j_end) of a later stage h >= blk, reading the
  /// roots with stride n/2h.
  void sweep_stage(double* d, std::size_t h, std::size_t j_begin,
                   std::size_t j_end) const {
    const double* roots = reinterpret_cast<const double*>(
        twiddles.tw.data() + twiddles.roots);
    stage(d, n, h, j_begin, j_end, roots, n / (2 * h));
  }

  void radix2_inplace(std::span<cplx> a) const {
    // Decimation-in-time: bit reversal, then log2(n) butterfly stages.
    bit_reverse(a.data(), n, 0, n);
    double* d = reinterpret_cast<double*>(a.data());
    const std::size_t blk = std::min(n, kBlock);
    for (std::size_t b = 0; b < n; b += blk) block_stages(d, b, blk);
    for (std::size_t h = blk; h < n; h <<= 1) sweep_stage(d, h, 0, h);
    if (dir == Direction::kInverse) scale_inverse(d, 0, n);
  }

  void radix2_parallel(std::span<cplx> a, ThreadPool& pool) const {
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      bit_reverse(a.data(), n, b, e);
    });
    double* d = reinterpret_cast<double*>(a.data());
    const std::size_t blk = std::min(n, kBlock);
    pool.parallel_for(n / blk, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) block_stages(d, i * blk, blk);
    });
    // Later stages: each worker takes a contiguous range of butterfly
    // columns j across every group (no two butterflies share elements
    // within a stage).
    for (std::size_t h = blk; h < n; h <<= 1)
      pool.parallel_for(h, [&](std::size_t b, std::size_t e) {
        sweep_stage(d, h, b, e);
      });
    if (dir == Direction::kInverse)
      pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
        scale_inverse(d, b, e);
      });
  }

  void bluestein(std::span<cplx> a) const {
    // y[k] = conj(c[k]) * sum_t x[t] c[t] * conj(c[k-t]) ... expressed as a
    // circular convolution of length m computed with power-of-two FFTs.
    cvec av(m, cplx{});
    for (std::size_t t = 0; t < n; ++t) av[t] = a[t] * chirp[t];
    fwd_m->execute(av);
    for (std::size_t t = 0; t < m; ++t) av[t] *= bfreq[t];
    inv_m->execute(av);
    const double scale =
        dir == Direction::kInverse ? 1.0 / static_cast<double>(n) : 1.0;
    for (std::size_t k = 0; k < n; ++k) a[k] = av[k] * chirp[k] * scale;
  }
};

Plan::Plan(std::size_t n, Direction dir) : impl_(std::make_unique<Impl>()) {
  if (n == 0) throw std::invalid_argument("fft::Plan: n must be >= 1");
  impl_->n = n;
  impl_->dir = dir;
  impl_->pow2 = is_pow2(n);
  if (impl_->pow2) {
    if (n > 1) impl_->twiddles = make_twiddles(n, impl_->sign());
    return;
  }
  // Bluestein setup. chirp[t] = exp(sign*pi*i*t^2/n); t^2 taken mod 2n keeps
  // the angle argument small (exp is 2n-periodic in t^2/n * pi).
  impl_->m = next_pow2(2 * n - 1);
  impl_->chirp.resize(n);
  const double sign = impl_->sign();
  for (std::size_t t = 0; t < n; ++t) {
    const u64 t2 = mod_mul(t, t, 2 * n);
    const double ang = sign * kPi * static_cast<double>(t2) /
                       static_cast<double>(n);
    impl_->chirp[t] = cplx{std::cos(ang), std::sin(ang)};
  }
  impl_->fwd_m = std::make_unique<Plan>(impl_->m, Direction::kForward);
  impl_->inv_m = std::make_unique<Plan>(impl_->m, Direction::kInverse);
  cvec b(impl_->m, cplx{});
  b[0] = std::conj(impl_->chirp[0]);
  for (std::size_t t = 1; t < n; ++t) {
    b[t] = std::conj(impl_->chirp[t]);
    b[impl_->m - t] = std::conj(impl_->chirp[t]);
  }
  impl_->fwd_m->execute(b);
  impl_->bfreq = std::move(b);
}

Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

std::size_t Plan::size() const { return impl_->n; }
Direction Plan::direction() const { return impl_->dir; }

void Plan::execute(std::span<const cplx> in, std::span<cplx> out) const {
  if (in.size() != impl_->n || out.size() != impl_->n)
    throw std::invalid_argument("fft::Plan::execute: size mismatch");
  if (in.data() != out.data()) std::copy(in.begin(), in.end(), out.begin());
  if (impl_->n == 1) return;
  if (impl_->pow2)
    impl_->radix2_inplace(out);
  else
    impl_->bluestein(out);
}

void Plan::execute_batch(std::span<cplx> data, std::size_t batch) const {
  if (data.size() != batch * impl_->n)
    throw std::invalid_argument("fft::Plan::execute_batch: size mismatch");
  for (std::size_t b = 0; b < batch; ++b)
    execute(data.subspan(b * impl_->n, impl_->n));
}

void Plan::execute_batch(std::span<cplx> data, std::size_t batch,
                         ThreadPool& pool) const {
  if (data.size() != batch * impl_->n)
    throw std::invalid_argument("fft::Plan::execute_batch: size mismatch");
  pool.parallel_for(batch, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      execute(data.subspan(i * impl_->n, impl_->n));
  });
}

void Plan::execute_parallel(std::span<cplx> data, ThreadPool& pool) const {
  if (data.size() != impl_->n)
    throw std::invalid_argument("fft::Plan::execute_parallel: size mismatch");
  if (impl_->n == 1) return;
  if (impl_->pow2)
    impl_->radix2_parallel(data, pool);
  else
    impl_->bluestein(data);  // Bluestein recurses into pow2 plans; keep serial
}

PlanCost Plan::cost() const {
  const double n = static_cast<double>(impl_->pow2 ? impl_->n : impl_->m);
  const double stages = n > 1 ? static_cast<double>(log2_floor(
                                    static_cast<u64>(n)))
                              : 0.0;
  PlanCost c;
  // Classic radix-2 count: 5 n log2 n flops; one read+write sweep of the
  // 16-byte complex array per stage plus the permutation pass.
  c.flops = 5.0 * n * stages;
  c.bytes = 32.0 * n * (stages + 1.0);
  if (!impl_->pow2) {
    c.flops *= 3.0;  // two forward + one inverse FFT of size m
    c.bytes *= 3.0;
  }
  return c;
}

cvec fft(std::span<const cplx> x) {
  cvec out(x.size());
  Plan(x.size(), Direction::kForward).execute(x, out);
  return out;
}

cvec ifft(std::span<const cplx> x) {
  cvec out(x.size());
  Plan(x.size(), Direction::kInverse).execute(x, out);
  return out;
}

}  // namespace cusfft::fft
