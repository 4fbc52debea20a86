#include "src/surrogate/kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/common/cpu_dispatch.h"
#include "src/common/logging.h"

namespace hypertune {

namespace {

/// Accumulates ((xi_d - q_j) / l_d)^2 into r2[j] for one dimension across
/// all m queries. Per query this is exactly the scalar kernel's distance
/// term — subtract, divide, square, add, in the same dimension order — so
/// the accumulated r2 is bit-identical to operator()'s; the loop only runs
/// independent queries side by side (exact IEEE ops, no reduction).
HT_TARGET_CLONES
void AccumulateScaledSquares(double xi_d, double ld, const double* q,
                             size_t m, double* r2) {
  for (size_t j = 0; j < m; ++j) {
    const double diff = (xi_d - q[j]) / ld;
    r2[j] += diff * diff;
  }
}

/// First-dimension variant: stores diff^2 instead of accumulating onto a
/// zero-filled buffer. 0.0 + d*d == d*d exactly for every IEEE double
/// (d*d is never -0.0 unless d is zero, and 0.0 + 0.0 == 0.0), so skipping
/// the zero fill plus read-modify-write pass changes no bits.
HT_TARGET_CLONES
void InitScaledSquares(double xi_d, double ld, const double* q, size_t m,
                       double* r2) {
  for (size_t j = 0; j < m; ++j) {
    const double diff = (xi_d - q[j]) / ld;
    r2[j] = diff * diff;
  }
}

constexpr double kSqrt5 = 2.23606797749979;

/// Evaluates the non-exponential part of the Matérn-5/2 expression for m
/// accumulated squared distances: scale[j] = s2 * (1 + sqrt5 r + 5 r2 / 3)
/// and targ[j] = -sqrt5 r. The scalar kernel computes
/// (s2 * poly) * exp(-sqrt5 r), so multiplying scale[j] by exp(targ[j])
/// afterwards reproduces its association order exactly.
void Matern52PrefactorScalar(double s2, const double* r2, size_t m,
                             double* scale, double* targ) {
  for (size_t j = 0; j < m; ++j) {
    const double r = std::sqrt(r2[j]);
    scale[j] = s2 * (1.0 + kSqrt5 * r + 5.0 * r2[j] / 3.0);
    targ[j] = -kSqrt5 * r;
  }
}

#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__)
#define HT_KERNEL_AVX2 1

/// Four-wide version of Matern52PrefactorScalar. Every operation is
/// lane-wise and IEEE-exact — sqrtpd is correctly rounded like sqrtsd, and
/// the add/mul/div association matches the scalar expression term for term —
/// so each lane's bits equal the scalar loop's.
__attribute__((target("avx2")))
void Matern52PrefactorAvx2(double s2, const double* r2, size_t m,
                           double* scale, double* targ) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d five = _mm256_set1_pd(5.0);
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d sqrt5 = _mm256_set1_pd(kSqrt5);
  const __m256d neg_sqrt5 = _mm256_set1_pd(-kSqrt5);
  const __m256d s2v = _mm256_set1_pd(s2);
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d r2v = _mm256_loadu_pd(r2 + j);
    const __m256d r = _mm256_sqrt_pd(r2v);
    // (1 + sqrt5*r) + (5*r2)/3, associated exactly as the scalar expression.
    const __m256d poly = _mm256_add_pd(
        _mm256_add_pd(one, _mm256_mul_pd(sqrt5, r)),
        _mm256_div_pd(_mm256_mul_pd(five, r2v), three));
    _mm256_storeu_pd(scale + j, _mm256_mul_pd(s2v, poly));
    _mm256_storeu_pd(targ + j, _mm256_mul_pd(neg_sqrt5, r));
  }
  if (j < m) Matern52PrefactorScalar(s2, r2 + j, m - j, scale + j, targ + j);
}

/// Eight-wide version; vsqrtpd on zmm is correctly rounded exactly like the
/// scalar sqrt, and the association is unchanged, so lanes keep scalar bits.
__attribute__((target("avx512f")))
void Matern52PrefactorAvx512(double s2, const double* r2, size_t m,
                             double* scale, double* targ) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d five = _mm512_set1_pd(5.0);
  const __m512d three = _mm512_set1_pd(3.0);
  const __m512d sqrt5 = _mm512_set1_pd(kSqrt5);
  const __m512d neg_sqrt5 = _mm512_set1_pd(-kSqrt5);
  const __m512d s2v = _mm512_set1_pd(s2);
  size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m512d r2v = _mm512_loadu_pd(r2 + j);
    // The all-lanes masked form is the same vsqrtpd; it avoids the
    // unmasked intrinsic's self-initialized pass-through operand, which
    // GCC 12 flags as maybe-uninitialized.
    const __m512d r = _mm512_maskz_sqrt_pd(0xFF, r2v);
    const __m512d poly = _mm512_add_pd(
        _mm512_add_pd(one, _mm512_mul_pd(sqrt5, r)),
        _mm512_div_pd(_mm512_mul_pd(five, r2v), three));
    _mm512_storeu_pd(scale + j, _mm512_mul_pd(s2v, poly));
    _mm512_storeu_pd(targ + j, _mm512_mul_pd(neg_sqrt5, r));
  }
  if (j < m) Matern52PrefactorScalar(s2, r2 + j, m - j, scale + j, targ + j);
}
#endif

void Matern52Prefactor(double s2, const double* r2, size_t m, double* scale,
                       double* targ) {
#if defined(HT_KERNEL_AVX2)
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512f");
  if (kHasAvx512) {
    Matern52PrefactorAvx512(s2, r2, m, scale, targ);
    return;
  }
  static const bool kHasAvx2 = __builtin_cpu_supports("avx2");
  if (kHasAvx2) {
    Matern52PrefactorAvx2(s2, r2, m, scale, targ);
    return;
  }
#endif
  Matern52PrefactorScalar(s2, r2, m, scale, targ);
}

}  // namespace

Matern52Kernel::Matern52Kernel(std::vector<double> lengthscales,
                               double signal_variance)
    : lengthscales_(std::move(lengthscales)),
      signal_variance_(signal_variance) {
  HT_CHECK(signal_variance_ > 0.0) << "signal variance must be positive";
  for (double l : lengthscales_) {
    HT_CHECK(l > 0.0) << "lengthscales must be positive";
  }
}

double Matern52Kernel::operator()(const std::vector<double>& a,
                                  const std::vector<double>& b) const {
  HT_CHECK(a.size() == dim() && b.size() == dim())
      << "kernel input dimension mismatch";
  return Eval(a.data(), b.data());
}

double Matern52Kernel::Eval(const double* a, const double* b) const {
  double r2 = 0.0;
  for (size_t i = 0; i < lengthscales_.size(); ++i) {
    double d = (a[i] - b[i]) / lengthscales_[i];
    r2 += d * d;
  }
  return FromSquaredDistance(r2);
}

double Matern52Kernel::FromDiffs(const double* diffs) const {
  // Same expression sequence as Eval: the stored value is the raw
  // difference, so d = diffs[i] / l_i reproduces (a_i - b_i) / l_i exactly.
  double r2 = 0.0;
  for (size_t i = 0; i < lengthscales_.size(); ++i) {
    double d = diffs[i] / lengthscales_[i];
    r2 += d * d;
  }
  return FromSquaredDistance(r2);
}

double Matern52Kernel::FromSquaredDistance(double r2) const {
  double r = std::sqrt(r2);
  return signal_variance_ * (1.0 + kSqrt5 * r + 5.0 * r2 / 3.0) *
         std::exp(-kSqrt5 * r);
}

Matrix Matern52Kernel::GramMatrix(const Matrix& x) const {
  HT_CHECK(x.rows() == 0 || x.cols() == dim())
      << "kernel input dimension mismatch";
  size_t n = x.rows();
  Matrix k(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    k(i, i) = signal_variance_;
    for (size_t j = i + 1; j < n; ++j) {
      double v = Eval(x.row(i), x.row(j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

Matrix Matern52Kernel::GramMatrix(const KernelDiffBlocks& blocks) const {
  // Like GramMatrix(x), the blocks of an empty set give the empty matrix
  // whatever their dimension.
  HT_CHECK(blocks.num_points == 0 || blocks.dim == dim())
      << "diff blocks dimension mismatch";
  const size_t n = blocks.num_points;
  Matrix k(n, n, 0.0);
  const double* diffs = blocks.diffs.data();
  size_t pair = 0;
  for (size_t i = 0; i < n; ++i) {
    k(i, i) = signal_variance_;
    for (size_t j = i + 1; j < n; ++j) {
      double v = FromDiffs(diffs + pair * blocks.dim);
      k(i, j) = v;
      k(j, i) = v;
      ++pair;
    }
  }
  return k;
}

Vector Matern52Kernel::CrossCovariance(
    const Matrix& x, const std::vector<double>& query) const {
  HT_CHECK(query.size() == dim() && (x.rows() == 0 || x.cols() == dim()))
      << "kernel input dimension mismatch";
  Vector k(x.rows(), 0.0);
  for (size_t i = 0; i < x.rows(); ++i) k[i] = Eval(x.row(i), query.data());
  return k;
}

void Matern52Kernel::CrossCovariance(const Matrix& x, const Matrix& queries,
                                     Matrix* out) const {
  HT_CHECK(queries.cols() == dim() && (x.rows() == 0 || x.cols() == dim()))
      << "query dimension mismatch";
  const size_t n = x.rows();
  const size_t m = queries.rows();
  const size_t d = lengthscales_.size();
  Matrix& k = *out;
  k.Resize(n, m);
  // Transpose the queries to dimension-major once so the squared-distance
  // accumulation streams unit-stride across candidates; the r2 of a given
  // (i, j) pair is built by the same per-dimension operation sequence as the
  // scalar kernel, so every entry is bit-identical to operator()(x[i], q_j).
  std::vector<double> qt(d * m);
  for (size_t j = 0; j < m; ++j) {
    const double* q = queries.row(j);
    for (size_t dd = 0; dd < d; ++dd) qt[dd * m + j] = q[dd];
  }
  std::vector<double> r2(m);
  std::vector<double> scale(m);
  std::vector<double> targ(m);
  for (size_t i = 0; i < n; ++i) {
    const double* xi = x.row(i);
    if (d == 0) {
      std::fill(r2.begin(), r2.end(), 0.0);
    } else {
      InitScaledSquares(xi[0], lengthscales_[0], qt.data(), m, r2.data());
    }
    for (size_t dd = 1; dd < d; ++dd) {
      AccumulateScaledSquares(xi[dd], lengthscales_[dd], qt.data() + dd * m,
                              m, r2.data());
    }
    Matern52Prefactor(signal_variance_, r2.data(), m, scale.data(),
                      targ.data());
    double* krow = k.row(i);
    for (size_t j = 0; j < m; ++j) {
      krow[j] = scale[j] * std::exp(targ[j]);
    }
  }
}

KernelDiffBlocks BuildKernelDiffBlocks(const Matrix& x) {
  KernelDiffBlocks blocks;
  blocks.num_points = x.rows();
  blocks.dim = x.cols();
  const size_t n = x.rows();
  if (n < 2) return blocks;
  blocks.diffs.resize(n * (n - 1) / 2 * blocks.dim);
  double* out = blocks.diffs.data();
  for (size_t i = 0; i < n; ++i) {
    const double* a = x.row(i);
    for (size_t j = i + 1; j < n; ++j) {
      const double* b = x.row(j);
      for (size_t d = 0; d < blocks.dim; ++d) *out++ = a[d] - b[d];
    }
  }
  return blocks;
}

}  // namespace hypertune
