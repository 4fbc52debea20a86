#include "src/linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "src/common/cpu_dispatch.h"

namespace hypertune {

namespace {

/// Columns per register strip of the multi-RHS solve. 16 doubles of running
/// values fit in vector registers, so the inner k-loop reads only the factor
/// entry and one finalized row — no store traffic per update.
constexpr size_t kSolveStrip = 16;

/// Forward-substitutes one full strip of kSolveStrip columns starting at
/// `j0`. Per column the operation sequence is exactly SolveLower's
/// (initialize from b, subtract l(i,k) * y(k,j) for k ascending, divide by
/// the pivot), so every element is bit-identical to the single-RHS solve;
/// the strip only runs independent columns side by side.
#if defined(__GNUC__)

/// Four doubles in one lane-wise vector; element e of every operation below
/// is the scalar operation on element e — nothing crosses lanes, so bits
/// match the scalar loop. (`aligned(8)` keeps loads/stores unaligned-safe.)
typedef double V4 __attribute__((vector_size(32), aligned(8)));

/// Loads through an out-pointer: a wide vector passed or returned by value
/// would make the call's ABI differ between the baseline-compiled helper
/// and a target("...")-compiled caller (the -Wpsabi hazard). always_inline
/// keeps the load in the caller's ISA.
__attribute__((always_inline)) inline void LoadV4(const double* p, V4* v) {
  __builtin_memcpy(v, p, sizeof(V4));
}

HT_TARGET_CLONES
void SolveLowerStrip(const Matrix& l, const Matrix& b, size_t j0, Matrix* y) {
  const size_t n = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const double* lrow = l.row(i);
    const double* brow = b.row(i) + j0;
    V4 a0, a1, a2, a3;
    LoadV4(brow + 0, &a0);
    LoadV4(brow + 4, &a1);
    LoadV4(brow + 8, &a2);
    LoadV4(brow + 12, &a3);
    for (size_t k = 0; k < i; ++k) {
      const double lik = lrow[k];
      const V4 lik4 = {lik, lik, lik, lik};
      const double* ykrow = y->row(k) + j0;
      V4 y0, y1, y2, y3;
      LoadV4(ykrow + 0, &y0);
      LoadV4(ykrow + 4, &y1);
      LoadV4(ykrow + 8, &y2);
      LoadV4(ykrow + 12, &y3);
      a0 -= lik4 * y0;
      a1 -= lik4 * y1;
      a2 -= lik4 * y2;
      a3 -= lik4 * y3;
    }
    const double pivot = lrow[i];
    const V4 pivot4 = {pivot, pivot, pivot, pivot};
    a0 /= pivot4;
    a1 /= pivot4;
    a2 /= pivot4;
    a3 /= pivot4;
    double* yrow = y->row(i) + j0;
    __builtin_memcpy(yrow + 0, &a0, sizeof(V4));
    __builtin_memcpy(yrow + 4, &a1, sizeof(V4));
    __builtin_memcpy(yrow + 8, &a2, sizeof(V4));
    __builtin_memcpy(yrow + 12, &a3, sizeof(V4));
  }
}

#if defined(__x86_64__) && defined(__linux__) && !defined(__clang__)
#define HT_SOLVE_AVX512 1

/// Eight doubles per lane-wise vector; same bit-identity argument as V4.
typedef double V8 __attribute__((vector_size(64), aligned(8)));

/// Out-pointer load for the same ABI reason as LoadV4.
__attribute__((always_inline)) inline void LoadV8(const double* p, V8* v) {
  __builtin_memcpy(v, p, sizeof(V8));
}

/// Vector registers of running columns in the AVX-512 strip. Four zmm
/// accumulators (32 columns) measured fastest at real column counts: wider
/// strips amortize bookkeeping but the row stride is rarely 64-byte aligned,
/// so every other row's loads split cache lines and the extra split-load
/// traffic outweighs the savings. The constant-trip inner loops fully unroll.
constexpr size_t kAvx512Acc = 4;
constexpr size_t kAvx512Strip = kAvx512Acc * 8;

/// AVX-512 strip of kAvx512Strip columns. The serial k-chain of each
/// accumulator bounds the solve by subtract latency and FP throughput, so
/// wider strips (more independent columns in flight, fewer shared loads per
/// column) are the lever — each column's arithmetic is still exactly
/// SolveLower's.
__attribute__((target("avx512f")))
void SolveLowerStripAvx512(const Matrix& l, const Matrix& b, size_t j0,
                           Matrix* y) {
  const size_t n = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const double* lrow = l.row(i);
    const double* brow = b.row(i) + j0;
    V8 acc[kAvx512Acc];
    for (size_t q = 0; q < kAvx512Acc; ++q) LoadV8(brow + 8 * q, &acc[q]);
    for (size_t k = 0; k < i; ++k) {
      const double lik = lrow[k];
      const V8 lik8 = {lik, lik, lik, lik, lik, lik, lik, lik};
      const double* ykrow = y->row(k) + j0;
      for (size_t q = 0; q < kAvx512Acc; ++q) {
        V8 yk;
        LoadV8(ykrow + 8 * q, &yk);
        acc[q] -= lik8 * yk;
      }
    }
    const double pivot = lrow[i];
    const V8 pivot8 = {pivot, pivot, pivot, pivot, pivot, pivot, pivot, pivot};
    for (size_t q = 0; q < kAvx512Acc; ++q) acc[q] /= pivot8;
    double* yrow = y->row(i) + j0;
    for (size_t q = 0; q < kAvx512Acc; ++q) {
      __builtin_memcpy(yrow + 8 * q, &acc[q], sizeof(V8));
    }
  }
}
#endif  // x86_64 avx512 dispatch

#else  // portable scalar strip, same arithmetic per column

void SolveLowerStrip(const Matrix& l, const Matrix& b, size_t j0, Matrix* y) {
  const size_t n = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const double* lrow = l.row(i);
    const double* brow = b.row(i) + j0;
    double acc[kSolveStrip];
    for (size_t j = 0; j < kSolveStrip; ++j) acc[j] = brow[j];
    for (size_t k = 0; k < i; ++k) {
      const double lik = lrow[k];
      const double* ykrow = y->row(k) + j0;
      for (size_t j = 0; j < kSolveStrip; ++j) acc[j] -= lik * ykrow[j];
    }
    const double pivot = lrow[i];
    double* yrow = y->row(i) + j0;
    for (size_t j = 0; j < kSolveStrip; ++j) yrow[j] = acc[j] / pivot;
  }
}

#endif

/// Same substitution for the ragged tail of fewer than kSolveStrip columns.
void SolveLowerStripTail(const Matrix& l, const Matrix& b, size_t j0,
                         size_t width, Matrix* y) {
  const size_t n = b.rows();
  for (size_t i = 0; i < n; ++i) {
    const double* lrow = l.row(i);
    const double* brow = b.row(i) + j0;
    double acc[kSolveStrip];
    for (size_t j = 0; j < width; ++j) acc[j] = brow[j];
    for (size_t k = 0; k < i; ++k) {
      const double lik = lrow[k];
      const double* ykrow = y->row(k) + j0;
      for (size_t j = 0; j < width; ++j) acc[j] -= lik * ykrow[j];
    }
    const double pivot = lrow[i];
    double* yrow = y->row(i) + j0;
    for (size_t j = 0; j < width; ++j) yrow[j] = acc[j] / pivot;
  }
}

}  // namespace

Status Cholesky::Factorize(const Matrix& a, double jitter) {
  factored_ = false;
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  size_t n = a.rows();
  l_ = Matrix(n, n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) {
      return Status::FailedPrecondition(
          "matrix is not positive definite at pivot " + std::to_string(j));
    }
    double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (size_t k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      l_(i, j) = acc / ljj;
    }
  }
  factored_ = true;
  return Status::Ok();
}

Vector Cholesky::SolveLower(const Vector& b) const {
  HT_CHECK(factored_) << "SolveLower before successful Factorize";
  HT_CHECK(b.size() == l_.rows()) << "SolveLower: size mismatch";
  size_t n = b.size();
  Vector y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (size_t k = 0; k < i; ++k) acc -= l_(i, k) * y[k];
    y[i] = acc / l_(i, i);
  }
  return y;
}

Vector Cholesky::SolveLowerTransposed(const Vector& b) const {
  HT_CHECK(factored_) << "SolveLowerTransposed before successful Factorize";
  HT_CHECK(b.size() == l_.rows()) << "SolveLowerTransposed: size mismatch";
  size_t n = b.size();
  Vector x(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double acc = b[i];
    for (size_t k = i + 1; k < n; ++k) acc -= l_(k, i) * x[k];
    x[i] = acc / l_(i, i);
  }
  return x;
}

Vector Cholesky::Solve(const Vector& b) const {
  return SolveLowerTransposed(SolveLower(b));
}

namespace {

/// Strip-mined multi-RHS forward substitution from `b` into `y` (which may
/// alias `b`: a strip's row i is read before it is written, and rows k < i
/// it consumes are already final). A strip's running values live in
/// registers for the whole substitution, so the factor row l(i, 0..i) is
/// streamed once per strip and the strip itself generates no intermediate
/// store traffic — that amortization over repeated SolveLower is the batch
/// win. Each column's arithmetic is exactly the single-RHS solve's (see
/// SolveLowerStrip), so the result is bit-identical column by column.
void SolveLowerStrips(const Matrix& l, const Matrix& b, Matrix* y) {
  const size_t m = b.cols();
  size_t j0 = 0;
#if defined(HT_SOLVE_AVX512)
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512f");
  if (kHasAvx512) {
    for (; j0 + kAvx512Strip <= m; j0 += kAvx512Strip) {
      SolveLowerStripAvx512(l, b, j0, y);
    }
  }
#endif
  for (; j0 + kSolveStrip <= m; j0 += kSolveStrip) {
    SolveLowerStrip(l, b, j0, y);
  }
  if (j0 < m) SolveLowerStripTail(l, b, j0, m - j0, y);
}

}  // namespace

Matrix Cholesky::SolveLowerMulti(const Matrix& b) const {
  HT_CHECK(factored_) << "SolveLowerMulti before successful Factorize";
  HT_CHECK(b.rows() == l_.rows()) << "SolveLowerMulti: size mismatch";
  Matrix y(b.rows(), b.cols(), 0.0);
  SolveLowerStrips(l_, b, &y);
  return y;
}

void Cholesky::SolveLowerMultiInPlace(Matrix* b) const {
  HT_CHECK(factored_) << "SolveLowerMultiInPlace before successful Factorize";
  HT_CHECK(b->rows() == l_.rows()) << "SolveLowerMultiInPlace: size mismatch";
  SolveLowerStrips(l_, *b, b);
}

Status Cholesky::UpdateAppend(const Vector& k, double kss) {
  HT_CHECK(factored_) << "UpdateAppend before successful Factorize";
  if (k.size() != l_.rows()) {
    return Status::InvalidArgument("UpdateAppend: size mismatch");
  }
  const size_t n = l_.rows();
  // New bottom row: l12 solves L l12 = k, which is exactly the forward
  // substitution the full factorization performs for the last row, so the
  // extended factor is bit-identical to refactorizing from scratch.
  Vector l12 = SolveLower(k);
  double diag = kss;
  for (size_t i = 0; i < n; ++i) diag -= l12[i] * l12[i];
  if (!(diag > 0.0) || !std::isfinite(diag)) {
    return Status::FailedPrecondition(
        "appended observation makes the matrix indefinite");
  }
  // Grow in place: restride the existing rows inside the geometrically
  // grown storage instead of building a fresh (n+1) x (n+1) matrix. A BO
  // loop appends one observation per iteration, and re-allocating and
  // re-faulting half a megabyte per append costs ~10x the O(n^2)
  // arithmetic at n = 256. Rows move last-to-first so a destination only
  // ever overlaps rows that were already moved, and memmove handles the
  // within-row overlap. Only reached after the indefiniteness check, so a
  // failed append still leaves the factor untouched.
  l_.Resize(n + 1, n + 1);
  double* buf = l_.row(0);
  for (size_t r = n; r-- > 1;) {
    __builtin_memmove(buf + r * (n + 1), buf + r * n, n * sizeof(double));
  }
  for (size_t r = 0; r < n; ++r) {
    double* row = buf + r * (n + 1);
    for (size_t c = r + 1; c <= n; ++c) row[c] = 0.0;
  }
  double* last = buf + n * (n + 1);
  for (size_t c = 0; c < n; ++c) last[c] = l12[c];
  last[n] = std::sqrt(diag);
  return Status::Ok();
}

double Cholesky::LogDeterminant() const {
  HT_CHECK(factored_) << "LogDeterminant before successful Factorize";
  double acc = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Status CholeskyWithJitter(const Matrix& a, Cholesky* chol, double* jitter_used,
                          double initial_jitter, int max_attempts) {
  if (jitter_used != nullptr) *jitter_used = 0.0;
  Status last = chol->Factorize(a);
  if (last.ok()) return last;
  double jitter = initial_jitter;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    last = chol->Factorize(a, jitter);
    if (last.ok()) {
      if (jitter_used != nullptr) *jitter_used = jitter;
      return last;
    }
    jitter *= 10.0;
  }
  return last;
}

}  // namespace hypertune
