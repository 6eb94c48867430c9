// Copyright 2026 The LearnRisk Authors

#include "classifier/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/math_util.h"

namespace learnrisk {
namespace {

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;

}  // namespace

MlpClassifier::MlpClassifier(MlpOptions options)
    : options_(std::move(options)) {}

void MlpClassifier::InitLayers(size_t input_dim, Rng* rng) {
  layers_.clear();
  adam_step_ = 0;
  std::vector<size_t> dims;
  dims.push_back(input_dim);
  for (size_t h : options_.hidden) dims.push_back(h);
  dims.push_back(1);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    layer.in = dims[l];
    layer.out = dims[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = rng->Normal() * scale;
    layer.mw.assign(layer.w.size(), 0.0);
    layer.vw.assign(layer.w.size(), 0.0);
    layer.mb.assign(layer.b.size(), 0.0);
    layer.vb.assign(layer.b.size(), 0.0);
    layers_.push_back(std::move(layer));
  }
}

double MlpClassifier::Forward(const double* x,
                              std::vector<std::vector<double>>* acts) const {
  // Two halves of one per-thread buffer, each as wide as the widest layer,
  // hold the current layer's input and output; it only ever grows.
  size_t width = feature_mean_.size();
  for (const Layer& layer : layers_) width = std::max(width, layer.out);
  thread_local std::vector<double> buffer;
  if (buffer.size() < 2 * width) buffer.resize(2 * width);
  double* cur = buffer.data();
  double* next = cur + width;
  for (size_t i = 0; i < feature_mean_.size(); ++i) {
    cur[i] = (x[i] - feature_mean_[i]) / feature_std_[i];
  }
  if (acts != nullptr) acts->emplace_back(cur, cur + feature_mean_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const size_t in = layer.in;
    const double* w = layer.w.data();
    const bool is_output = l + 1 == layers_.size();
    // Four neurons at a time, one add chain each, so their multiply-adds
    // overlap instead of queueing on one chain. Every neuron still sums its
    // bias then w[i] * cur[i] for i ascending, as a one-neuron loop would.
    size_t o = 0;
    for (; o + 4 <= layer.out; o += 4) {
      const double* w0 = w + o * in;
      const double* w1 = w0 + in;
      const double* w2 = w1 + in;
      const double* w3 = w2 + in;
      double z0 = layer.b[o];
      double z1 = layer.b[o + 1];
      double z2 = layer.b[o + 2];
      double z3 = layer.b[o + 3];
      for (size_t i = 0; i < in; ++i) {
        const double xi = cur[i];
        z0 += w0[i] * xi;
        z1 += w1[i] * xi;
        z2 += w2[i] * xi;
        z3 += w3[i] * xi;
      }
      next[o] = is_output ? z0 : std::max(z0, 0.0);
      next[o + 1] = is_output ? z1 : std::max(z1, 0.0);
      next[o + 2] = is_output ? z2 : std::max(z2, 0.0);
      next[o + 3] = is_output ? z3 : std::max(z3, 0.0);
    }
    for (; o < layer.out; ++o) {
      const double* wrow = w + o * in;
      double z = layer.b[o];
      for (size_t i = 0; i < in; ++i) z += wrow[i] * cur[i];
      next[o] = is_output ? z : std::max(z, 0.0);
    }
    std::swap(cur, next);
    if (acts != nullptr) acts->emplace_back(cur, cur + layer.out);
  }
  return Sigmoid(cur[0]);
}

Status MlpClassifier::Train(const FeatureMatrix& features,
                            const std::vector<uint8_t>& labels) {
  if (features.rows() != labels.size()) {
    return Status::InvalidArgument("feature rows != label count");
  }
  if (features.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  const size_t n = features.rows();
  const size_t d = features.cols();

  // Per-feature standardization statistics.
  feature_mean_.assign(d, 0.0);
  feature_std_.assign(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) feature_mean_[j] += features.at(i, j);
  }
  for (size_t j = 0; j < d; ++j) feature_mean_[j] /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double delta = features.at(i, j) - feature_mean_[j];
      feature_std_[j] += delta * delta;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    feature_std_[j] = std::sqrt(feature_std_[j] / static_cast<double>(n));
    if (feature_std_[j] < 1e-8) feature_std_[j] = 1.0;
  }

  double pos_weight = options_.positive_weight;
  if (pos_weight <= 0.0) {
    size_t n_pos = 0;
    for (uint8_t y : labels) n_pos += y;
    const size_t n_neg = n - n_pos;
    pos_weight = n_pos > 0
                     ? std::max(1.0, static_cast<double>(n_neg) /
                                         static_cast<double>(n_pos))
                     : 1.0;
    pos_weight = std::min(pos_weight, 50.0);
  }

  Rng rng(options_.seed);
  InitLayers(d, &rng);

  // Gradient accumulators mirroring the layer parameters.
  std::vector<std::vector<double>> gw(layers_.size());
  std::vector<std::vector<double>> gb(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].b.size(), 0.0);
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batch_start = 0;
    while (batch_start < n) {
      const size_t batch_end =
          std::min(batch_start + options_.batch_size, n);
      const double batch_n = static_cast<double>(batch_end - batch_start);
      for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
      for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);

      for (size_t bi = batch_start; bi < batch_end; ++bi) {
        const size_t idx = order[bi];
        std::vector<std::vector<double>> acts;
        const double p = Forward(features.row(idx), &acts);
        const double y = labels[idx] ? 1.0 : 0.0;
        const double wy = labels[idx] ? pos_weight : 1.0;
        epoch_loss += -wy * (y * std::log(std::max(p, 1e-12)) +
                             (1.0 - y) * std::log(std::max(1.0 - p, 1e-12)));

        // delta at the output pre-activation.
        std::vector<double> delta = {wy * (p - y)};
        for (size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          const std::vector<double>& input = acts[l];
          for (size_t o = 0; o < layer.out; ++o) {
            gb[l][o] += delta[o];
            double* grow = gw[l].data() + o * layer.in;
            for (size_t i = 0; i < layer.in; ++i) {
              grow[i] += delta[o] * input[i];
            }
          }
          if (l == 0) break;
          std::vector<double> prev_delta(layer.in, 0.0);
          for (size_t i = 0; i < layer.in; ++i) {
            if (acts[l][i] <= 0.0) continue;  // ReLU gate of layer l-1 output
            double g = 0.0;
            for (size_t o = 0; o < layer.out; ++o) {
              g += layers_[l].w[o * layer.in + i] * delta[o];
            }
            prev_delta[i] = g;
          }
          delta = std::move(prev_delta);
        }
      }

      // One Adam step on the averaged batch gradient (+ L2).
      ++adam_step_;
      const double t = static_cast<double>(adam_step_);
      const double bias1 = 1.0 - std::pow(kAdamBeta1, t);
      const double bias2 = 1.0 - std::pow(kAdamBeta2, t);
      for (size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (size_t k = 0; k < layer.w.size(); ++k) {
          double g = gw[l][k] / batch_n + options_.l2 * layer.w[k];
          layer.mw[k] = kAdamBeta1 * layer.mw[k] + (1.0 - kAdamBeta1) * g;
          layer.vw[k] = kAdamBeta2 * layer.vw[k] + (1.0 - kAdamBeta2) * g * g;
          layer.w[k] -= options_.learning_rate * (layer.mw[k] / bias1) /
                        (std::sqrt(layer.vw[k] / bias2) + kAdamEps);
        }
        for (size_t k = 0; k < layer.b.size(); ++k) {
          double g = gb[l][k] / batch_n;
          layer.mb[k] = kAdamBeta1 * layer.mb[k] + (1.0 - kAdamBeta1) * g;
          layer.vb[k] = kAdamBeta2 * layer.vb[k] + (1.0 - kAdamBeta2) * g * g;
          layer.b[k] -= options_.learning_rate * (layer.mb[k] / bias1) /
                        (std::sqrt(layer.vb[k] / bias2) + kAdamEps);
        }
      }
      batch_start = batch_end;
    }
    final_loss_ = epoch_loss / static_cast<double>(n);
  }
  return Status::OK();
}

double MlpClassifier::PredictProba(const double* features, size_t n) const {
  assert(n == feature_mean_.size() && "feature dimension mismatch");
  (void)n;
  return Forward(features, nullptr);
}

}  // namespace learnrisk
