#include "src/linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace hypertune {

double Dot(const Vector& a, const Vector& b) {
  HT_CHECK(a.size() == b.size()) << "dot: size mismatch " << a.size() << " vs "
                                 << b.size();
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(const Vector& v) { return std::sqrt(Dot(v, v)); }

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::MatVec(const Vector& x) const {
  HT_CHECK(x.size() == cols_) << "matvec: size mismatch";
  Vector y(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector Matrix::TransposeMatVec(const Vector& x) const {
  HT_CHECK(x.size() == rows_) << "t-matvec: size mismatch";
  Vector y(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    double xr = x[r];
    for (size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  HT_CHECK(cols_ == other.rows_) << "matmul: inner dimension mismatch";
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& rows) const {
  Matrix out(rows.size(), cols_);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy_n(row(rows[r]), cols_, out.row(r));
  }
  return out;
}

void Matrix::AddDiagonal(double value) {
  HT_CHECK(rows_ == cols_) << "AddDiagonal requires a square matrix";
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

}  // namespace hypertune
