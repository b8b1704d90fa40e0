#ifndef LEAPME_NN_MLP_H_
#define LEAPME_NN_MLP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status_or.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace leapme::nn {

/// Sequential feed-forward network (multi-layer perceptron).
///
/// The LEAPME classifier (paper §IV-D) is an Mlp with two ReLU hidden
/// layers of sizes 128 and 64 and a two-neuron softmax output whose
/// positive probability serves as the pair similarity score.
class Mlp {
 public:
  Mlp() = default;

  // Move-only: layers hold per-batch state and are not sharable.
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;
  Mlp(const Mlp&) = delete;
  Mlp& operator=(const Mlp&) = delete;

  /// Appends a fully connected layer (He-uniform init from `rng`).
  void AddDense(size_t input_dim, size_t output_dim, Rng& rng);

  /// Appends an externally constructed layer (used by deserialization).
  void AddLayer(std::unique_ptr<Layer> layer);

  /// Appends a ReLU activation.
  void AddRelu();

  size_t layer_count() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  /// Forward pass; returns the raw logits (batch x num_classes).
  void Forward(const Matrix& input, Matrix* logits);

  /// Forward + softmax through the layers' const ForwardInference path;
  /// returns class probabilities. It touches no layer or scratch state, so
  /// concurrent Infer calls on one trained network are safe — this is what
  /// the parallel batched scorer uses. Arithmetic (and hence output bits)
  /// matches Forward followed by Softmax.
  void Infer(const Matrix& input, Matrix* probabilities) const;

  /// One optimization step on a mini-batch. Returns the batch loss.
  double TrainBatch(const Matrix& input, const std::vector<int32_t>& labels,
                    AdamOptimizer& optimizer);

  /// All trainable parameters across layers.
  std::vector<Parameter> Parameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
  // Scratch buffers reused across batches.
  std::vector<Matrix> activations_;
  Matrix probabilities_;
  Matrix grad_;
  Matrix grad_scratch_;
};

/// Builds the paper's architecture: input -> Dense(h1) -> ReLU ->
/// Dense(h2) -> ReLU -> ... -> Dense(num_classes).
Mlp BuildMlp(size_t input_dim, const std::vector<size_t>& hidden_sizes,
             size_t num_classes, Rng& rng);

/// Serializes the network to a self-describing text file.
Status SaveMlp(const Mlp& mlp, const std::string& path);

/// Loads a network previously written by SaveMlp.
StatusOr<Mlp> LoadMlp(const std::string& path);

}  // namespace leapme::nn

#endif  // LEAPME_NN_MLP_H_
