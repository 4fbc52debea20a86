#include "src/surrogate/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/statistics.h"
#include "src/surrogate/kernel.h"

namespace hypertune {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kLog2Pi = 1.8378770664093453;

}  // namespace

KernelPhiParams ClampedKernelParams(const std::vector<double>& phi,
                                    size_t dim) {
  HT_CHECK(phi.size() == dim + 2) << "phi must be [log l_1..d, log s2, log n2]";
  KernelPhiParams p;
  p.lengthscales.resize(dim);
  for (size_t i = 0; i < dim; ++i) {
    p.lengthscales[i] = std::exp(Clamp(phi[i], -6.0, 4.0));
  }
  p.signal_variance = std::exp(Clamp(phi[dim], -6.0, 4.0));
  p.noise_variance = std::exp(Clamp(phi[dim + 1], -12.0, 2.0));
  return p;
}

GaussianProcess::GaussianProcess(GaussianProcessOptions options)
    : options_(std::move(options)) {}

Status GaussianProcess::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("GP: |x| != |y|");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("GP: empty training set");
  }
  const size_t dim = x.cols();
  fitted_ = false;

  // Subsample over the cap to bound the O(n^3) cost.
  const std::vector<size_t> keep = KeepBestAndRecent(y, options_.max_points);
  x_ = x.SelectRows(keep);
  y_raw_.resize(keep.size());
  for (size_t j = 0; j < keep.size(); ++j) y_raw_[j] = y[keep[j]];

  Standardize();

  // Default hyper-parameters: moderate lengthscales on the unit cube.
  lengthscales_.assign(dim, 0.5);
  signal_variance_ = 1.0;
  noise_variance_ = 1e-3;

  // Seed by the *total* observation count, not the kept count: once the
  // max_points cap binds the kept count is constant, and seeding by it
  // would replay the same restart points on every refit.
  last_restart_seed_ = CombineSeeds(options_.seed, x.rows());

  // Pairwise differences are hyper-parameter-independent, so one block set
  // serves every likelihood evaluation of the search below and the final
  // factorization.
  const KernelDiffBlocks blocks = BuildKernelDiffBlocks(x_);

  if (options_.optimize_hyperparameters && x_.rows() >= 3) {
    // phi = [log l_1..d, log s2, log n2]
    std::vector<double> best_phi(dim + 2);
    for (size_t i = 0; i < dim; ++i) best_phi[i] = std::log(0.5);
    best_phi[dim] = 0.0;
    best_phi[dim + 1] = std::log(1e-3);
    double best = Lml(best_phi, blocks);

    Rng rng(last_restart_seed_);
    for (int r = 0; r < options_.num_restarts; ++r) {
      std::vector<double> phi(dim + 2);
      for (size_t i = 0; i < dim; ++i) phi[i] = rng.Uniform(-2.5, 1.5);
      phi[dim] = rng.Uniform(-1.0, 1.0);
      phi[dim + 1] = rng.Uniform(-9.0, -1.0);
      double v = Lml(phi, blocks);
      if (v > best) {
        best = v;
        best_phi = phi;
      }
    }
    // Coordinate refinement with shrinking steps.
    double step = 0.5;
    for (int sweep = 0; sweep < options_.refine_sweeps; ++sweep) {
      for (size_t i = 0; i < best_phi.size(); ++i) {
        for (double delta : {step, -step}) {
          std::vector<double> phi = best_phi;
          phi[i] += delta;
          double v = Lml(phi, blocks);
          if (v > best) {
            best = v;
            best_phi = phi;
          }
        }
      }
      step *= 0.5;
    }
    if (best > kNegInf) {
      // Install through the same clamp the search scored with: Lml clamps
      // phi before exponentiating, so installing raw exp(best_phi) could
      // differ from what was scored once refinement pushes a coordinate
      // past the bounds.
      KernelPhiParams params = ClampedKernelParams(best_phi, dim);
      lengthscales_ = std::move(params.lengthscales);
      signal_variance_ = params.signal_variance;
      noise_variance_ = params.noise_variance;
    }
  }

  if (!Refactor(blocks)) {
    // Retry with a conservative noise floor before giving up.
    noise_variance_ = std::max(noise_variance_, 1e-2);
    if (!Refactor(blocks)) {
      return Status::Internal("GP: covariance factorization failed");
    }
  }
  fitted_ = true;
  return Status::Ok();
}

double GaussianProcess::Lml(const std::vector<double>& phi,
                            const KernelDiffBlocks& blocks) const {
  KernelPhiParams params = ClampedKernelParams(phi, x_.cols());
  Matern52Kernel kernel(std::move(params.lengthscales),
                        params.signal_variance);
  Matrix k = kernel.GramMatrix(blocks);
  k.AddDiagonal(params.noise_variance);
  Cholesky chol;
  double jitter = 0.0;
  if (!CholeskyWithJitter(k, &chol, &jitter).ok()) return kNegInf;
  Vector alpha = chol.Solve(y_std_);
  double fit = Dot(y_std_, alpha);
  double n = static_cast<double>(y_std_.size());
  return -0.5 * fit - 0.5 * chol.LogDeterminant() - 0.5 * n * kLog2Pi;
}

bool GaussianProcess::Refactor(const KernelDiffBlocks& blocks) {
  Matern52Kernel kernel(lengthscales_, signal_variance_);
  Matrix k = kernel.GramMatrix(blocks);
  k.AddDiagonal(noise_variance_);
  if (!CholeskyWithJitter(k, &chol_, &jitter_used_).ok()) return false;
  RecomputePosterior();
  return true;
}

void GaussianProcess::Standardize() {
  y_mean_ = Mean(y_raw_);
  double sd = StdDev(y_raw_);
  y_scale_ = (sd > 1e-12) ? sd : 1.0;
  y_std_.resize(y_raw_.size());
  for (size_t i = 0; i < y_raw_.size(); ++i) {
    y_std_[i] = (y_raw_[i] - y_mean_) / y_scale_;
  }
}

void GaussianProcess::RecomputePosterior() {
  Standardize();
  alpha_ = chol_.Solve(y_std_);
  double n = static_cast<double>(y_std_.size());
  lml_ = -0.5 * Dot(y_std_, alpha_) - 0.5 * chol_.LogDeterminant() -
         0.5 * n * kLog2Pi;
}

Status GaussianProcess::Append(const std::vector<double>& x, double y) {
  if (!fitted_) {
    return Status::FailedPrecondition("GP::Append before Fit");
  }
  if (x.size() != x_.cols()) {
    return Status::InvalidArgument("GP::Append: dimension mismatch");
  }
  if (x_.rows() >= options_.max_points) {
    return Status::FailedPrecondition(
        "GP::Append past the subsample cap; refit instead");
  }
  Matern52Kernel kernel(lengthscales_, signal_variance_);
  Vector k = kernel.CrossCovariance(x_, x);
  // The new diagonal entry sees the same additions a refit would apply:
  // GramMatrix puts signal variance on the diagonal, AddDiagonal adds the
  // noise, and the factorization adds the jitter the current factor used.
  double kss = (signal_variance_ + noise_variance_) + jitter_used_;
  HT_RETURN_IF_ERROR(chol_.UpdateAppend(k, kss));
  const size_t n = x_.rows();
  x_.Resize(n + 1, x_.cols());  // same width: the kept rows stay in place
  std::copy(x.begin(), x.end(), x_.row(n));
  y_raw_.push_back(y);
  RecomputePosterior();
  return Status::Ok();
}

Prediction GaussianProcess::Predict(const std::vector<double>& x) const {
  HT_CHECK(fitted_) << "GP::Predict before Fit";
  Matern52Kernel kernel(lengthscales_, signal_variance_);
  Vector kstar = kernel.CrossCovariance(x_, x);
  double mean_std = Dot(kstar, alpha_);
  Vector v = chol_.SolveLower(kstar);
  double var_std = signal_variance_ - Dot(v, v);
  var_std = std::max(var_std, 1e-12);

  Prediction p;
  p.mean = mean_std * y_scale_ + y_mean_;
  p.variance = var_std * y_scale_ * y_scale_;
  return p;
}

std::vector<Prediction> GaussianProcess::PredictBatch(const Matrix& x) const {
  HT_CHECK(fitted_) << "GP::PredictBatch before Fit";
  HT_CHECK(x.cols() == x_.cols()) << "GP::PredictBatch: dimension mismatch";
  const size_t m = x.rows();
  std::vector<Prediction> out(m);
  if (m == 0) return out;
  // One cross-covariance matrix, one multi-RHS solve: the factor is
  // streamed once per column tile instead of once per candidate, which is
  // where the batch speedup comes from. Per-candidate arithmetic order is
  // preserved throughout, so each entry matches Predict bit-for-bit.
  Matern52Kernel kernel(lengthscales_, signal_variance_);
  // The n x m cross-covariance is the only large temporary; it is reused as
  // the solve output (forward substitution is safely in-place) and kept in
  // a thread-local scratch so a sweep of PredictBatch calls touches warm
  // pages instead of re-faulting ~1 MB of fresh allocations per call.
  // CrossCovariance overwrites every entry, so no state leaks between calls.
  thread_local Matrix kstar;
  kernel.CrossCovariance(x_, x, &kstar);  // n x m
  Vector means = kstar.TransposeMatVec(alpha_);  // == Dot(kstar_col, alpha)
  chol_.SolveLowerMultiInPlace(&kstar);  // kstar now holds v
  const Matrix& v = kstar;
  Vector vv(m, 0.0);
  for (size_t i = 0; i < x_.rows(); ++i) {
    const double* vrow = v.row(i);
    for (size_t j = 0; j < m; ++j) vv[j] += vrow[j] * vrow[j];
  }
  for (size_t j = 0; j < m; ++j) {
    double var_std = signal_variance_ - vv[j];
    var_std = std::max(var_std, 1e-12);
    out[j].mean = means[j] * y_scale_ + y_mean_;
    out[j].variance = var_std * y_scale_ * y_scale_;
  }
  return out;
}

}  // namespace hypertune
