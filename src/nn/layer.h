#ifndef LEAPME_NN_LAYER_H_
#define LEAPME_NN_LAYER_H_

#include <string>
#include <vector>

#include "nn/matrix.h"

namespace leapme::nn {

/// A named parameter tensor with its gradient, exposed by layers so that
/// optimizers can update them uniformly.
struct Parameter {
  std::string name;
  Matrix* value = nullptr;
  Matrix* gradient = nullptr;
};

/// One differentiable layer of a feed-forward network.
///
/// Protocol: Forward stores whatever it needs for the following Backward
/// call (layers are stateful across one forward/backward pair, which is the
/// standard mini-batch training pattern).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes `output` from `input` (both batch-major: one row per sample).
  virtual void Forward(const Matrix& input, Matrix* output) = 0;

  /// Given dLoss/dOutput, computes dLoss/dInput and accumulates parameter
  /// gradients (overwriting them; gradients are per-batch). A null
  /// `grad_input` means nobody reads dLoss/dInput (the first layer of a
  /// network): only the parameter gradients are computed.
  virtual void Backward(const Matrix& grad_output, Matrix* grad_input) = 0;

  /// Forward pass that leaves the layer untouched: no cached activations.
  /// Because it is const and writes only `output`, concurrent calls on one
  /// layer are safe — the parallel batched scorer shares one trained
  /// network across pool threads through this path. Arithmetic is
  /// identical to Forward.
  virtual void ForwardInference(const Matrix& input,
                                Matrix* output) const = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<Parameter> Parameters() { return {}; }

  /// Layer type tag used by serialization ("dense", "relu", ...).
  virtual std::string TypeName() const = 0;

  /// Output width given input width; used for shape validation.
  virtual size_t OutputDim(size_t input_dim) const = 0;
};

}  // namespace leapme::nn

#endif  // LEAPME_NN_LAYER_H_
