#ifndef HYPERTUNE_LINALG_MATRIX_H_
#define HYPERTUNE_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/common/logging.h"

namespace hypertune {

/// A dense column vector backed by std::vector<double>.
using Vector = std::vector<double>;

/// Dot product. Requires equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm(const Vector& v);

/// A dense row-major matrix of doubles, sized at construction.
///
/// This is intentionally a minimal numeric container: the one design-matrix
/// type of the surrogates (one encoded configuration per row, from
/// ConfigurationSpace::EncodeInto through Surrogate::Fit and PredictBatch)
/// and what the Gaussian process needs (element access, mat-vec, Cholesky
/// in cholesky.h). No expression templates, no views.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Reshapes to rows x cols, reusing the existing allocation when the
  /// element count allows (growth is geometric, so repeated small grows
  /// amortize to no allocation). The flat element sequence keeps its
  /// prefix, but the 2-D view is not preserved across a stride change:
  /// either write every element the new shape exposes before reading, or
  /// restride the flat storage explicitly (as Cholesky::UpdateAppend
  /// does). This exists for hot paths that refill a scratch matrix every
  /// call — constructing a fresh Matrix re-faults its pages, which costs
  /// more than the arithmetic.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Identity matrix of size n x n.
  static Matrix Identity(size_t n);

  /// Matrix-vector product. Requires x.size() == cols().
  Vector MatVec(const Vector& x) const;

  /// Transposed matrix-vector product (A^T x). Requires x.size() == rows().
  Vector TransposeMatVec(const Vector& x) const;

  /// Matrix-matrix product. Requires cols() == other.rows().
  Matrix MatMul(const Matrix& other) const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Returns the rows `rows` of this matrix, in that order.
  Matrix SelectRows(const std::vector<size_t>& rows) const;

  /// Adds `value` to each diagonal element (in place). Requires square.
  void AddDiagonal(double value);

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Pointer to the start of row `r` (contiguous, cols() doubles; no
  /// element to read when cols() is 0).
  const double* row(size_t r) const { return data_.data() + r * cols_; }
  double* row(size_t r) { return data_.data() + r * cols_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace hypertune

#endif  // HYPERTUNE_LINALG_MATRIX_H_
