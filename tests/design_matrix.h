#ifndef HYPERTUNE_TESTS_DESIGN_MATRIX_H_
#define HYPERTUNE_TESTS_DESIGN_MATRIX_H_

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/linalg/matrix.h"

namespace hypertune {

/// Test-only: the points of `rows` as the rows of one design matrix, the
/// shape Surrogate::Fit and the kernel read. Every row must be as wide as
/// the first.
inline Matrix DesignMatrix(const std::vector<std::vector<double>>& rows) {
  Matrix x(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    HT_CHECK(rows[r].size() == x.cols()) << "ragged test rows";
    std::copy(rows[r].begin(), rows[r].end(), x.row(r));
  }
  return x;
}

}  // namespace hypertune

#endif  // HYPERTUNE_TESTS_DESIGN_MATRIX_H_
