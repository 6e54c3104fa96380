// Unit + property tests for src/fft: plan correctness against the naive DFT
// oracle, round trips, linearity, shift theorem, batching, parallel paths,
// Bluestein sizes, and bit identity with the reference radix-2 below.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/modmath.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fft/dft.hpp"
#include "fft/fft.hpp"
#include "sfft/params.hpp"
#include "signal/filter.hpp"
#include "signal/window.hpp"

namespace cusfft {
namespace {

cvec random_signal(std::size_t n, u64 seed) {
  Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = cplx{rng.next_normal(), rng.next_normal()};
  return x;
}

double max_abs_diff(const cvec& a, const cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(NaiveDft, MatchesClosedFormImpulse) {
  cvec x(8, cplx{});
  x[0] = {1.0, 0.0};
  cvec X = fft::dft_naive(x);
  for (const auto& v : X) EXPECT_NEAR(std::abs(v - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(NaiveDft, SingleToneLandsAtItsBin) {
  const std::size_t n = 16;
  cvec x(n);
  const std::size_t f = 3;
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = kTwoPi * f * t / n;
    x[t] = cplx{std::cos(ang), std::sin(ang)};
  }
  cvec X = fft::dft_naive(x);
  EXPECT_NEAR(std::abs(X[f]), static_cast<double>(n), 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != f) {
      EXPECT_NEAR(std::abs(X[i]), 0.0, 1e-9);
    }
  }
}

TEST(NaiveDft, InverseRoundTrip) {
  cvec x = random_signal(12, 5);
  EXPECT_LT(max_abs_diff(fft::idft_naive(fft::dft_naive(x)), x), 1e-10);
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  cvec x = random_signal(n, 100 + n);
  cvec expect = fft::dft_naive(x);
  cvec got = fft::fft(x);
  EXPECT_LT(max_abs_diff(got, expect), 1e-8 * std::sqrt(double(n)))
      << "n=" << n;
}

TEST_P(FftSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  cvec x = random_signal(n, 200 + n);
  EXPECT_LT(max_abs_diff(fft::ifft(fft::fft(x)), x), 1e-9) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));
INSTANTIATE_TEST_SUITE_P(Bluestein, FftSizes,
                         ::testing::Values(3, 5, 6, 7, 12, 100, 243, 1000));

TEST(FftPlan, RejectsZeroSize) {
  EXPECT_THROW(fft::Plan(0, fft::Direction::kForward), std::invalid_argument);
}

TEST(FftPlan, RejectsSizeMismatch) {
  fft::Plan p(8, fft::Direction::kForward);
  cvec x(4);
  EXPECT_THROW(p.execute(x), std::invalid_argument);
}

TEST(FftPlan, OutOfPlaceLeavesInputIntact) {
  cvec x = random_signal(64, 7);
  cvec keep = x;
  cvec out(64);
  fft::Plan p(64, fft::Direction::kForward);
  p.execute(x, out);
  EXPECT_EQ(x, keep);
  EXPECT_LT(max_abs_diff(out, fft::dft_naive(keep)), 1e-8);
}

TEST(FftPlan, PlanIsReusable) {
  fft::Plan p(128, fft::Direction::kForward);
  for (int rep = 0; rep < 3; ++rep) {
    cvec x = random_signal(128, 300 + rep);
    cvec out(128);
    p.execute(x, out);
    EXPECT_LT(max_abs_diff(out, fft::dft_naive(x)), 1e-8) << rep;
  }
}

TEST(FftProperties, Linearity) {
  const std::size_t n = 256;
  cvec a = random_signal(n, 1), b = random_signal(n, 2);
  const cplx alpha{1.5, -0.5};
  cvec mix(n);
  for (std::size_t i = 0; i < n; ++i) mix[i] = alpha * a[i] + b[i];
  cvec fa = fft::fft(a), fb = fft::fft(b), fmix = fft::fft(mix);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fmix[i] - (alpha * fa[i] + fb[i])), 0.0, 1e-8);
}

TEST(FftProperties, ParsevalEnergyPreserved) {
  const std::size_t n = 512;
  cvec x = random_signal(n, 3);
  cvec X = fft::fft(x);
  double et = 0, ef = 0;
  for (const auto& v : x) et += std::norm(v);
  for (const auto& v : X) ef += std::norm(v);
  EXPECT_NEAR(ef, et * n, et * n * 1e-12);
}

TEST(FftProperties, TimeShiftIsLinearPhase) {
  const std::size_t n = 128, s = 5;
  cvec x = random_signal(n, 4);
  cvec xs(n);
  for (std::size_t t = 0; t < n; ++t) xs[t] = x[(t + s) % n];
  cvec X = fft::fft(x), Xs = fft::fft(xs);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = kTwoPi * static_cast<double>(k * s) / n;
    const cplx phase{std::cos(ang), std::sin(ang)};
    EXPECT_NEAR(std::abs(Xs[k] - X[k] * phase), 0.0, 1e-8) << k;
  }
}

TEST(FftBatch, MatchesPerTransform) {
  const std::size_t n = 64, batch = 5;
  cvec data = random_signal(n * batch, 6);
  cvec expect = data;
  fft::Plan p(n, fft::Direction::kForward);
  for (std::size_t b = 0; b < batch; ++b)
    p.execute(std::span<cplx>(expect).subspan(b * n, n));
  p.execute_batch(data, batch);
  EXPECT_LT(max_abs_diff(data, expect), 0.0 + 1e-12);
}

TEST(FftBatch, ParallelMatchesSerial) {
  const std::size_t n = 64, batch = 9;
  cvec a = random_signal(n * batch, 8);
  cvec b = a;
  fft::Plan p(n, fft::Direction::kForward);
  p.execute_batch(a, batch);
  ThreadPool pool(4);
  p.execute_batch(b, batch, pool);
  EXPECT_LT(max_abs_diff(a, b), 1e-12);
}

TEST(FftParallel, LargeTransformMatchesSerial) {
  const std::size_t n = 1 << 12;
  cvec a = random_signal(n, 9);
  cvec b = a;
  fft::Plan p(n, fft::Direction::kForward);
  p.execute(a);
  ThreadPool pool(4);
  p.execute_parallel(b, pool);
  EXPECT_LT(max_abs_diff(a, b), 1e-12);
}

TEST(FftParallel, InverseParallelRoundTrip) {
  const std::size_t n = 1 << 10;
  cvec x = random_signal(n, 10);
  cvec y = x;
  ThreadPool pool(3);
  fft::Plan fwd(n, fft::Direction::kForward);
  fft::Plan inv(n, fft::Direction::kInverse);
  fwd.execute_parallel(y, pool);
  inv.execute_parallel(y, pool);
  EXPECT_LT(max_abs_diff(x, y), 1e-9);
}

TEST(FftCost, GrowsNLogN) {
  fft::Plan small(1 << 10, fft::Direction::kForward);
  fft::Plan big(1 << 20, fft::Direction::kForward);
  const auto cs = small.cost(), cb = big.cost();
  EXPECT_GT(cs.flops, 0.0);
  EXPECT_NEAR(cb.flops / cs.flops, (20.0 * (1 << 20)) / (10.0 * (1 << 10)),
              1e-9);
  EXPECT_GT(cb.bytes, cs.bytes);
}


TEST(FftCost, BluesteinCostsMoreThanPow2) {
  fft::Plan pow2(1024, fft::Direction::kForward);
  fft::Plan blue(1000, fft::Direction::kForward);
  EXPECT_GT(blue.cost().flops, pow2.cost().flops);
  EXPECT_GT(blue.cost().bytes, pow2.cost().bytes);
}

// ---- bit identity with the reference radix-2 -------------------------------
//
// A test-local textbook radix-2 as the reference: a bit-reversal table,
// strided reads of one n/2-entry twiddle table, and std::complex
// butterflies; Bluestein on top of it. Spectra, filters and modeled times
// downstream are pinned bit for bit, so every Plan path must reproduce
// this reference byte for byte (memcmp, NaN payloads included).
namespace reference {

void radix2(std::span<cplx> a, fft::Direction dir) {
  const std::size_t n = a.size();
  const unsigned logn = log2_floor(n);
  std::vector<u32> bitrev(n);
  for (std::size_t i = 0; i < n; ++i) {
    u32 r = 0;
    for (unsigned b = 0; b < logn; ++b)
      if (i >> b & 1) r |= 1u << (logn - 1 - b);
    bitrev[i] = r;
  }
  const double sign = dir == fft::Direction::kForward ? -1.0 : 1.0;
  cvec tw(std::max<std::size_t>(n / 2, 1));
  for (std::size_t j = 0; j < tw.size(); ++j) {
    const double ang = sign * kTwoPi * static_cast<double>(j) /
                       static_cast<double>(n);
    tw[j] = cplx{std::cos(ang), std::sin(ang)};
  }
  for (std::size_t i = 0; i < n; ++i) {
    const u32 r = bitrev[i];
    if (i < r) std::swap(a[i], a[r]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const cplx w = tw[j * step];
        const cplx u = a[i + j];
        const cplx v = a[i + j + half] * w;
        a[i + j] = u + v;
        a[i + j + half] = u - v;
      }
    }
  }
  if (dir == fft::Direction::kInverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv_n;
  }
}

void transform(std::span<cplx> a, fft::Direction dir);

void bluestein(std::span<cplx> a, fft::Direction dir) {
  const std::size_t n = a.size();
  const std::size_t m = next_pow2(2 * n - 1);
  const double sign = dir == fft::Direction::kForward ? -1.0 : 1.0;
  cvec chirp(n);
  for (std::size_t t = 0; t < n; ++t) {
    const u64 t2 = mod_mul(t, t, 2 * n);
    const double ang = sign * kPi * static_cast<double>(t2) /
                       static_cast<double>(n);
    chirp[t] = cplx{std::cos(ang), std::sin(ang)};
  }
  cvec bfreq(m, cplx{});
  bfreq[0] = std::conj(chirp[0]);
  for (std::size_t t = 1; t < n; ++t) {
    bfreq[t] = std::conj(chirp[t]);
    bfreq[m - t] = std::conj(chirp[t]);
  }
  radix2(bfreq, fft::Direction::kForward);
  cvec av(m, cplx{});
  for (std::size_t t = 0; t < n; ++t) av[t] = a[t] * chirp[t];
  radix2(av, fft::Direction::kForward);
  for (std::size_t t = 0; t < m; ++t) av[t] *= bfreq[t];
  radix2(av, fft::Direction::kInverse);
  const double scale =
      dir == fft::Direction::kInverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (std::size_t k = 0; k < n; ++k) a[k] = av[k] * chirp[k] * scale;
}

void transform(std::span<cplx> a, fft::Direction dir) {
  if (a.size() == 1) return;
  if (is_pow2(a.size()))
    radix2(a, dir);
  else
    bluestein(a, dir);
}

}  // namespace reference

bool same_bytes(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/// Byte-equal parts, except that any NaN matches any NaN.
bool same_up_to_nan_bits(const cvec& a, const cvec& b) {
  if (a.size() != b.size()) return false;
  const auto* pa = reinterpret_cast<const double*>(a.data());
  const auto* pb = reinterpret_cast<const double*>(b.data());
  for (std::size_t i = 0; i < 2 * a.size(); ++i) {
    const bool both_nan = std::isnan(pa[i]) && std::isnan(pb[i]);
    if (!both_nan && std::memcmp(pa + i, pb + i, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Inputs of one size: 0 random normals; 1 signed zeros and subnormals
/// among normals; 2 the same plus +Inf and -Inf (inf - inf and inf * 0
/// turn up mid-transform, so std::complex's NaN recovery runs); 3 the same
/// plus two copies of the NaN that invalid operations return on x86
/// (sign bit set), so every NaN in the transform has one bit pattern;
/// 4 NaNs of both signs.
cvec special_input(std::size_t n, int kind, u64 seed) {
  cvec x = random_signal(n, seed);
  if (kind == 0) return x;
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double sub = std::numeric_limits<double>::min() / 8.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 1: x[i] = {0.0, -0.0}; break;
      case 3: x[i] = {-dmin, sub}; break;
      case 5: x[i] = {-0.0, -sub}; break;
      default: break;
    }
  }
  if (kind == 2) {
    x[n / 3] = {inf, x[n / 3].imag()};
    x[n - 1] = {x[n - 1].real(), -inf};
  } else if (kind == 3) {
    x[n / 2] = {-nan, 1.0};
    x[n - 1] = {0.5, -nan};
  } else if (kind == 4) {
    x[n / 2] = {-nan, 1.0};
    x[n - 1] = {0.5, nan};
  }
  return x;
}

constexpr int kInputKinds = 5;
constexpr int kMixedNanKind = 4;

/// memcmp of every Plan path against the reference, one size/direction.
/// When NaNs of both signs meet in one sum, the sign that survives follows
/// the operand order the compiler picked for that sum, which differs
/// between builds (a sanitizer build, for one). So the mixed-NaN input is
/// compared with the reference up to NaN bits only; Plan's paths share one
/// butterfly function and must still agree with each other byte for byte.
void expect_paths_match_reference(std::size_t n, fft::Direction dir,
                                  ThreadPool& pool) {
  const fft::Plan plan(n, dir);
  cvec batch_in, expect_all;
  for (int kind = 0; kind < kInputKinds; ++kind) {
    const cvec x = special_input(n, kind, 1000 + 10 * n + kind);
    cvec ref = x;
    reference::transform(ref, dir);
    cvec expect(n);
    plan.execute(x, expect);
    EXPECT_TRUE(kind == kMixedNanKind ? same_up_to_nan_bits(expect, ref)
                                      : same_bytes(expect, ref))
        << "execute n=" << n << " dir=" << int(dir) << " kind=" << kind;
    cvec got = x;
    plan.execute_parallel(got, pool);
    EXPECT_TRUE(same_bytes(got, expect))
        << "execute_parallel n=" << n << " dir=" << int(dir)
        << " kind=" << kind;
    batch_in.insert(batch_in.end(), x.begin(), x.end());
    expect_all.insert(expect_all.end(), expect.begin(), expect.end());
  }
  cvec got = batch_in;
  plan.execute_batch(got, kInputKinds);
  EXPECT_TRUE(same_bytes(got, expect_all))
      << "execute_batch n=" << n << " dir=" << int(dir);
  got = batch_in;
  plan.execute_batch(got, kInputKinds, pool);
  EXPECT_TRUE(same_bytes(got, expect_all))
      << "execute_batch(pool) n=" << n << " dir=" << int(dir);
}

TEST(FftBitIdentity, PowersOfTwoMatchReferenceOnEveryPath) {
  ThreadPool pool(4);
  for (unsigned logn = 0; logn <= 20; ++logn)
    for (auto dir : {fft::Direction::kForward, fft::Direction::kInverse})
      expect_paths_match_reference(std::size_t{1} << logn, dir, pool);
}

/// Dolph-Chebyshev window length (the Bluestein size of its ifft) at the
/// paper-regime shapes the benchmark runs: n=2^18 k=1000 and the two
/// n=2^14 serve shapes (k=32, k=8), tolerance 1e-6.
std::size_t paper_window_length(std::size_t n, std::size_t k) {
  sfft::Params p;
  p.n = n;
  p.k = k;
  p.bcst = 1.0;
  return signal::window_length(signal::WindowKind::kDolphChebyshev,
                               0.5 / static_cast<double>(p.buckets()), 1e-6);
}

TEST(FftBitIdentity, BluesteinSizesMatchReference) {
  ThreadPool pool(4);
  const std::size_t sizes[] = {3, 10000, paper_window_length(1 << 18, 1000),
                               paper_window_length(1 << 14, 32),
                               paper_window_length(1 << 14, 8)};
  for (std::size_t n : sizes) {
    ASSERT_FALSE(is_pow2(n)) << n;
    for (auto dir : {fft::Direction::kForward, fft::Direction::kInverse})
      expect_paths_match_reference(n, dir, pool);
  }
}

u64 fnv1a(const cvec& v) {
  u64 h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(cplx); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Byte pins of the flat filters built on the dense FFT (two length-n
// transforms plus the window's Bluestein ifft each).
TEST(FftBitIdentity, FlatFilterBytesPinned) {
  const signal::FlatFilter f = signal::make_flat_filter(1 << 16, 512);
  EXPECT_EQ(fnv1a(f.time), 0xb4e85209ca6b5a24ull);
  EXPECT_EQ(fnv1a(f.freq), 0x395a95a837788791ull);

  sfft::Params p;  // the steady_2e18 shape in the paper regime
  p.n = 1 << 18;
  p.k = 1000;
  p.bcst = 1.0;
  p.filter.tolerance = 1e-6;
  const signal::FlatFilter s =
      signal::make_flat_filter(p.n, p.buckets(), p.filter);
  EXPECT_EQ(fnv1a(s.time), 0x7c379c35e6005724ull);
  EXPECT_EQ(fnv1a(s.freq), 0xd68e9a34c1148a0bull);
}

TEST(FftPlan, MoveTransfersOwnership) {
  fft::Plan a(64, fft::Direction::kForward);
  fft::Plan b = std::move(a);
  cvec x = random_signal(64, 11);
  cvec out(64);
  b.execute(x, out);
  EXPECT_LT(max_abs_diff(out, fft::dft_naive(x)), 1e-8);
}

TEST(FftProperties, ImpulseAndDcPairs) {
  // FFT of a constant is an impulse at bin 0 and vice versa.
  const std::size_t n = 128;
  cvec ones(n, cplx{1.0, 0.0});
  cvec F = fft::fft(ones);
  EXPECT_NEAR(std::abs(F[0] - cplx{double(n), 0.0}), 0.0, 1e-9);
  for (std::size_t i = 1; i < n; ++i)
    ASSERT_NEAR(std::abs(F[i]), 0.0, 1e-9) << i;
  cvec impulse(n, cplx{});
  impulse[0] = {1.0, 0.0};
  cvec G = fft::fft(impulse);
  for (const auto& v : G)
    ASSERT_NEAR(std::abs(v - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(FftProperties, ConjugateSymmetryForRealInput) {
  const std::size_t n = 256;
  Rng rng(12);
  cvec x(n);
  for (auto& v : x) v = cplx{rng.next_normal(), 0.0};
  cvec X = fft::fft(x);
  for (std::size_t k = 1; k < n; ++k)
    ASSERT_NEAR(std::abs(X[k] - std::conj(X[n - k])), 0.0, 1e-8) << k;
}

}  // namespace
}  // namespace cusfft
