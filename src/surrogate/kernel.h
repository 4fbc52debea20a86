#ifndef HYPERTUNE_SURROGATE_KERNEL_H_
#define HYPERTUNE_SURROGATE_KERNEL_H_

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.h"

namespace hypertune {

/// Precomputed pairwise raw differences (a_d - b_d) for a fixed training set,
/// independent of kernel hyper-parameters. Rebuilding a Gram matrix during
/// hyper-parameter search only changes the lengthscales, so the differences
/// can be computed once and divided by the current lengthscale per
/// evaluation — bit-identical to computing (a_d - b_d) / l_d from scratch.
///
/// Pairs are packed pair-major: entry p covers pair p of the (i < j) row-major
/// enumeration, with its `dim` differences contiguous at diffs[p * dim].
struct KernelDiffBlocks {
  size_t num_points = 0;
  size_t dim = 0;
  std::vector<double> diffs;
};

/// Matérn-5/2 covariance with per-dimension (ARD) lengthscales and a signal
/// amplitude:
///
///   k(a, b) = s^2 (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r),
///   r^2 = sum_i ((a_i - b_i) / l_i)^2.
///
/// The de-facto standard kernel for hyper-parameter tuning GPs (Snoek et
/// al. 2012); twice differentiable but not overly smooth.
class Matern52Kernel {
 public:
  /// `lengthscales` must be positive, one per input dimension;
  /// `signal_variance` is s^2 > 0.
  Matern52Kernel(std::vector<double> lengthscales, double signal_variance);

  size_t dim() const { return lengthscales_.size(); }
  const std::vector<double>& lengthscales() const { return lengthscales_; }
  double signal_variance() const { return signal_variance_; }

  /// Covariance between two points (sizes must equal dim()).
  double operator()(const std::vector<double>& a,
                    const std::vector<double>& b) const;

  /// Covariance from a precomputed difference vector (dim() doubles).
  double FromDiffs(const double* diffs) const;

  /// Gram matrix K with K_ij = k(row i of x, row j of x).
  Matrix GramMatrix(const Matrix& x) const;

  /// Gram matrix from precomputed pairwise differences; bit-identical to
  /// GramMatrix(x) for the training set the blocks were built from.
  /// GaussianProcess::Fit builds the blocks once per fit and scores every
  /// candidate of its hyper-parameter search through this overload.
  Matrix GramMatrix(const KernelDiffBlocks& blocks) const;

  /// Cross-covariance vector k(x_*, row i of x) for all training rows.
  Vector CrossCovariance(const Matrix& x,
                         const std::vector<double>& query) const;

  /// Batch cross-covariance into a caller-owned buffer: `out` is reshaped
  /// to x.rows() by queries.rows() and every entry is overwritten, with
  /// out(i, j) = k(row i of x, row j of queries). Column j is bit-identical
  /// to CrossCovariance(x, row j of queries). Hot callers reuse one scratch
  /// matrix across calls instead of re-faulting a fresh allocation per
  /// sweep.
  void CrossCovariance(const Matrix& x, const Matrix& queries,
                       Matrix* out) const;

 private:
  /// The scalar kernel on two points of dim() doubles each.
  double Eval(const double* a, const double* b) const;

  /// s^2 (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r) from r^2.
  double FromSquaredDistance(double r2) const;

  std::vector<double> lengthscales_;
  double signal_variance_;
};

/// Builds the pair-major difference blocks for a training set, one point
/// per row of `x`.
KernelDiffBlocks BuildKernelDiffBlocks(const Matrix& x);

}  // namespace hypertune

#endif  // HYPERTUNE_SURROGATE_KERNEL_H_
