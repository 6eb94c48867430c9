// Copyright 2026 The LearnRisk Authors
// Numeric building blocks for the risk model: Gaussian and truncated-Gaussian
// distribution functions, logistic helpers and simple summary statistics.
// These are the primitives behind Sections 4.2 and 6 of the paper.

#ifndef LEARNRISK_COMMON_MATH_UTIL_H_
#define LEARNRISK_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace learnrisk {

/// Numerical tolerance used by the distribution helpers for degenerate
/// (near-zero variance) cases.
inline constexpr double kTinySigma = 1e-12;

// The scalar helpers on the risk-scoring hot path (called several times per
// pair per epoch) are defined inline here; the heavier distribution
// functions stay in math_util.cc.

/// \brief Standard normal probability density phi(x).
inline double NormalPdf(double x) {
  constexpr double kInvSqrt2Pi = 0.3989422804014326779;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

/// \brief Standard normal CDF Phi(x), accurate over the full double range.
inline double NormalCdf(double x) {
  constexpr double kSqrt2 = 1.4142135623730950488;
  return 0.5 * std::erfc(-x / kSqrt2);
}

/// \brief Inverse standard normal CDF Phi^{-1}(p) for p in (0, 1).
///
/// Acklam's rational approximation refined with one Halley step against
/// erfc-based Phi; max relative error is below 1e-13 across (1e-300, 1-1e-16).
/// p <= 0 returns -inf; p >= 1 returns +inf.
double NormalQuantile(double p);

/// \brief CDF of N(mu, sigma^2) at x.
double NormalCdf(double x, double mu, double sigma);

/// \brief Quantile of N(mu, sigma^2) at p.
double NormalQuantile(double p, double mu, double sigma);

/// \brief Quantile of N(mu, sigma^2) truncated to [lo, hi].
///
/// F^{-1}(p) = mu + sigma * Phi^{-1}(Phi(a) + p (Phi(b) - Phi(a))) with
/// a = (lo-mu)/sigma, b = (hi-mu)/sigma. For sigma -> 0 the distribution
/// degenerates to a point mass at clamp(mu, lo, hi).
double TruncatedNormalQuantile(double p, double mu, double sigma, double lo,
                               double hi);

/// \brief CDF of N(mu, sigma^2) truncated to [lo, hi], evaluated at x.
double TruncatedNormalCdf(double x, double mu, double sigma, double lo,
                          double hi);

/// \brief Mean of N(mu, sigma^2) truncated to [lo, hi].
double TruncatedNormalMean(double mu, double sigma, double lo, double hi);

/// \brief Numerically-stable logistic function 1 / (1 + exp(-x)).
inline double Sigmoid(double x) {
  if (x >= 0.0) {
    double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  double z = std::exp(x);
  return z / (1.0 + z);
}

/// \brief Numerically-stable log(1 + exp(x)); the softplus link keeps learned
/// weights positive.
inline double Softplus(double x) {
  // log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)).
  return std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
}

/// \brief Derivative of softplus, i.e. Sigmoid(x).
inline double SoftplusGrad(double x) { return Sigmoid(x); }

/// \brief Inverse of softplus: x such that Softplus(x) == y, for y > 0.
double SoftplusInverse(double y);

/// \brief Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::min(std::max(x, lo), hi);
}

/// \brief Division guard of the batched risk scorer
/// (RiskModel::RiskScoreBatch): clamps the denominator's magnitude to 1e-300
/// (sign preserved) so a degenerate divisor yields a huge but finite
/// quotient instead of a NaN/inf.
inline double SafeDenominator(double b) {
  if (std::fabs(b) >= 1e-300) return b;
  return std::signbit(b) ? -1e-300 : 1e-300;
}

/// \brief Arithmetic mean; returns 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// \brief Population variance; returns 0 for fewer than two elements.
double Variance(const std::vector<double>& xs);

/// \brief Standard deviation (sqrt of population variance).
double StdDev(const std::vector<double>& xs);

}  // namespace learnrisk

#endif  // LEARNRISK_COMMON_MATH_UTIL_H_
