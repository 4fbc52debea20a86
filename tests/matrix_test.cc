#include "src/linalg/matrix.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/linalg/cholesky.h"

namespace hypertune {
namespace {

TEST(VectorTest, DotAndNorm) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(Norm({3.0, 4.0}), 5.0);
}

TEST(MatrixTest, IdentityAndAccess) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id.rows(), 3u);
  EXPECT_EQ(id.cols(), 3u);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  Vector y = m.MatVec({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(MatrixTest, TransposeMatVecMatchesTransposed) {
  Rng rng(1);
  Matrix m(3, 4);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) m(r, c) = rng.Gaussian();
  }
  Vector x = {1.0, -2.0, 0.5};
  Vector direct = m.TransposeMatVec(x);
  Vector via_transpose = m.Transposed().MatVec(x);
  ASSERT_EQ(direct.size(), via_transpose.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], via_transpose[i], 1e-12);
  }
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m = Matrix::Identity(2);
  m.AddDiagonal(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

/// Builds a random SPD matrix A = B B^T + n I.
Matrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) b(r, c) = rng.Gaussian();
  }
  Matrix a = b.MatMul(b.Transposed());
  a.AddDiagonal(static_cast<double>(n) * 0.1);
  return a;
}

TEST(CholeskyTest, FactorizationReconstructs) {
  Matrix a = RandomSpd(5, 42);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  const Matrix& l = chol.lower();
  Matrix reconstructed = l.MatMul(l.Transposed());
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-9);
    }
  }
}

TEST(CholeskyTest, SolveMatchesDirectMultiply) {
  Matrix a = RandomSpd(6, 7);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  Vector x_true = {1.0, -2.0, 3.0, 0.5, -0.25, 2.0};
  Vector b = a.MatVec(x_true);
  Vector x = chol.Solve(b);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(CholeskyTest, LogDeterminantMatchesIdentityScaling) {
  Matrix a = Matrix::Identity(4);
  a.AddDiagonal(1.0);  // 2I -> det = 16
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  EXPECT_NEAR(chol.LogDeterminant(), std::log(16.0), 1e-12);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Cholesky chol;
  EXPECT_EQ(chol.Factorize(Matrix(2, 3)).code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  Cholesky chol;
  EXPECT_EQ(chol.Factorize(a).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(chol.ok());
}

TEST(CholeskyTest, JitterRescuesSemiDefinite) {
  // Rank-deficient PSD matrix: outer product of a single vector.
  Matrix a(3, 3);
  Vector v = {1.0, 2.0, 3.0};
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) a(r, c) = v[r] * v[c];
  }
  Cholesky chol;
  double jitter = 0.0;
  ASSERT_TRUE(CholeskyWithJitter(a, &chol, &jitter).ok());
  EXPECT_GT(jitter, 0.0);
  EXPECT_TRUE(chol.ok());
}

TEST(CholeskyTest, JitterZeroWhenAlreadyPd) {
  Matrix a = RandomSpd(3, 3);
  Cholesky chol;
  double jitter = 123.0;
  ASSERT_TRUE(CholeskyWithJitter(a, &chol, &jitter).ok());
  EXPECT_DOUBLE_EQ(jitter, 0.0);
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Gaussian();
  }
  return m;
}

TEST(CholeskyTest, SolveLowerMultiBitIdenticalToPerColumn) {
  // Width 70 crosses the 64-column tile boundary; per-column results must
  // match the single-RHS solve bit-for-bit (the GP batch-prediction path
  // relies on this for golden-history stability).
  Matrix a = RandomSpd(12, 99);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  Matrix b = RandomMatrix(12, 70, 5);
  Matrix multi = chol.SolveLowerMulti(b);
  for (size_t j = 0; j < b.cols(); ++j) {
    Vector col(b.rows());
    for (size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    Vector single = chol.SolveLower(col);
    for (size_t i = 0; i < b.rows(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(multi(i, j)),
                std::bit_cast<uint64_t>(single[i]))
          << "column " << j << " row " << i;
    }
  }
}

TEST(CholeskyTest, SolveLowerMultiInPlaceBitIdenticalToOutOfPlace) {
  // Forward substitution in place (the allocation-free batch-predict
  // variant) must leave exactly the bits the out-of-place solve produces.
  // Width 150 exercises the wide, 16-column, and ragged-tail strips.
  Matrix a = RandomSpd(40, 17);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  Matrix b = RandomMatrix(40, 150, 23);
  Matrix expected = chol.SolveLowerMulti(b);
  Matrix in_place = b;
  chol.SolveLowerMultiInPlace(&in_place);
  for (size_t i = 0; i < b.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(in_place(i, j)),
                std::bit_cast<uint64_t>(expected(i, j)))
          << "row " << i << " col " << j;
    }
  }
}

TEST(MatrixTest, ResizeReshapesAndExposesWritableElements) {
  Matrix m(3, 4, 1.5);
  m.Resize(4, 6);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);
  // Contents are unspecified after Resize; every element must be writable
  // and readable at the new shape (this is what the scratch reuse relies
  // on).
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 6; ++c) m(r, c) = static_cast<double>(r * 6 + c);
  }
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_DOUBLE_EQ(m(r, c), static_cast<double>(r * 6 + c));
    }
  }
  // Shrinking reuses the allocation and keeps the view consistent.
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 42.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 42.0);
}

TEST(CholeskyTest, FactorizeWithJitterBitIdenticalToCopyAndAddDiagonal) {
  // The copy-free jitter path must reproduce the old behavior exactly: the
  // jitter is one addition onto the original diagonal value either way.
  Matrix a(3, 3);
  Vector v = {1.0, 2.0, 3.0};
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) a(r, c) = v[r] * v[c];
  }
  const Matrix original = a;
  Cholesky with_jitter;
  double jitter_used = 0.0;
  ASSERT_TRUE(CholeskyWithJitter(a, &with_jitter, &jitter_used).ok());
  EXPECT_GT(jitter_used, 0.0);
  // Input untouched (the old implementation copied; the new one must not
  // modify in place either).
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), original(r, c));
    }
  }
  // Old-style reference: materialize the jittered matrix and factorize it.
  Matrix jittered = a;
  jittered.AddDiagonal(jitter_used);
  Cholesky reference;
  ASSERT_TRUE(reference.Factorize(jittered).ok());
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(with_jitter.lower()(r, c), reference.lower()(r, c));
    }
  }
}

TEST(CholeskyTest, FailedFactorizeLeavesInputUnmodified) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -100.0;
  const Matrix original = a;
  Cholesky chol;
  double jitter = 0.0;
  EXPECT_FALSE(CholeskyWithJitter(a, &chol, &jitter).ok());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), original(r, c));
    }
  }
}

TEST(CholeskyTest, UpdateAppendBitIdenticalToRefactorize) {
  const size_t n = 10;
  Matrix full = RandomSpd(n + 1, 77);
  // Leading n x n block, appended column, and corner from the same matrix,
  // so the incremental and from-scratch factors describe identical data.
  Matrix head(n, n);
  Vector k(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) head(r, c) = full(r, c);
    k[r] = full(r, n);
  }
  Cholesky incremental;
  ASSERT_TRUE(incremental.Factorize(head).ok());
  ASSERT_TRUE(incremental.UpdateAppend(k, full(n, n)).ok());

  Cholesky scratch;
  ASSERT_TRUE(scratch.Factorize(full).ok());
  ASSERT_EQ(incremental.size(), n + 1);
  for (size_t r = 0; r <= n; ++r) {
    for (size_t c = 0; c <= n; ++c) {
      EXPECT_DOUBLE_EQ(incremental.lower()(r, c), scratch.lower()(r, c))
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(CholeskyTest, UpdateAppendRejectsIndefiniteExtensionUnchanged) {
  Matrix a = RandomSpd(4, 13);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  const Matrix before = chol.lower();
  // kss far below ||l12||^2 makes the extension indefinite.
  Vector k(4, 1.0);
  EXPECT_EQ(chol.UpdateAppend(k, -100.0).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_EQ(chol.size(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(chol.lower()(r, c), before(r, c));
    }
  }
  // The factor is still usable after the rejected update.
  Vector x = chol.Solve(a.MatVec({1.0, 2.0, 3.0, 4.0}));
  EXPECT_NEAR(x[0], 1.0, 1e-8);
}

TEST(CholeskyTest, UpdateAppendRejectsSizeMismatch) {
  Matrix a = RandomSpd(4, 14);
  Cholesky chol;
  ASSERT_TRUE(chol.Factorize(a).ok());
  EXPECT_EQ(chol.UpdateAppend(Vector(3, 0.0), 1.0).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hypertune
