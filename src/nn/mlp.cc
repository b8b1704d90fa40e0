#include "nn/mlp.h"

#include <fstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "nn/activation.h"
#include "nn/dense_layer.h"

namespace leapme::nn {

void Mlp::AddDense(size_t input_dim, size_t output_dim, Rng& rng) {
  layers_.push_back(std::make_unique<DenseLayer>(input_dim, output_dim, rng));
}

void Mlp::AddLayer(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
}

void Mlp::AddRelu() { layers_.push_back(std::make_unique<ReluLayer>()); }

void Mlp::Forward(const Matrix& input, Matrix* logits) {
  LEAPME_CHECK(!layers_.empty());
  activations_.resize(layers_.size());
  const Matrix* current = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*current, &activations_[i]);
    current = &activations_[i];
  }
  *logits = activations_.back();
}

void Mlp::Infer(const Matrix& input, Matrix* probabilities) const {
  LEAPME_CHECK(!layers_.empty());
  // Ping-pong between two local buffers; no member state is written.
  Matrix buffers[2];
  const Matrix* current = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Matrix* next = &buffers[i % 2];
    layers_[i]->ForwardInference(*current, next);
    current = next;
  }
  Softmax(*current, probabilities);
}

double Mlp::TrainBatch(const Matrix& input,
                       const std::vector<int32_t>& labels,
                       AdamOptimizer& optimizer) {
  Matrix logits;
  Forward(input, &logits);
  double loss = loss_.Forward(logits, labels, &probabilities_);
  loss_.Backward(probabilities_, labels, &grad_);
  // The first layer's input gradient would be dLoss/dFeatures, which
  // nothing reads: layer 0 computes its parameter gradients only.
  for (size_t i = layers_.size(); i-- > 1;) {
    layers_[i]->Backward(grad_, &grad_scratch_);
    std::swap(grad_, grad_scratch_);
  }
  layers_[0]->Backward(grad_, nullptr);
  optimizer.Step(Parameters());
  return loss;
}

std::vector<Parameter> Mlp::Parameters() {
  std::vector<Parameter> parameters;
  for (auto& layer : layers_) {
    for (Parameter& p : layer->Parameters()) {
      parameters.push_back(p);
    }
  }
  return parameters;
}

Mlp BuildMlp(size_t input_dim, const std::vector<size_t>& hidden_sizes,
             size_t num_classes, Rng& rng) {
  Mlp mlp;
  size_t current = input_dim;
  for (size_t hidden : hidden_sizes) {
    mlp.AddDense(current, hidden, rng);
    mlp.AddRelu();
    current = hidden;
  }
  mlp.AddDense(current, num_classes, rng);
  return mlp;
}

Status SaveMlp(const Mlp& mlp, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  // Enough digits that every weight parses back to the exact same value —
  // a save/load round trip must not perturb scores.
  out.precision(17);
  out << "leapme-mlp 1\n";
  out << mlp.layer_count() << "\n";
  for (size_t i = 0; i < mlp.layer_count(); ++i) {
    const Layer& layer = mlp.layer(i);
    out << layer.TypeName() << "\n";
    if (layer.TypeName() == "dense") {
      const auto& dense = static_cast<const DenseLayer&>(layer);
      out << dense.input_dim() << " " << dense.output_dim() << "\n";
      const Matrix& w = dense.weights();
      for (size_t r = 0; r < w.rows(); ++r) {
        for (size_t c = 0; c < w.cols(); ++c) {
          out << w(r, c) << (c + 1 == w.cols() ? '\n' : ' ');
        }
      }
      const Matrix& b = dense.bias();
      for (size_t c = 0; c < b.cols(); ++c) {
        out << b(0, c) << (c + 1 == b.cols() ? '\n' : ' ');
      }
    }
  }
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

StatusOr<Mlp> LoadMlp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open: " + path);
  }
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "leapme-mlp" || version != 1) {
    return Status::Corruption("bad model header in " + path);
  }
  size_t layer_count = 0;
  in >> layer_count;
  // Bound sizes read from disk before they drive allocations: a corrupt
  // or truncated file must come back as a Status, never as a bad_alloc.
  constexpr size_t kMaxLayers = 1024;
  constexpr size_t kMaxDenseDim = 1 << 20;
  if (!in || layer_count > kMaxLayers) {
    return Status::Corruption("bad layer count in " + path);
  }
  Mlp mlp;
  for (size_t i = 0; i < layer_count; ++i) {
    std::string type;
    in >> type;
    if (type == "relu") {
      mlp.AddRelu();
    } else if (type == "dense") {
      size_t input_dim = 0;
      size_t output_dim = 0;
      in >> input_dim >> output_dim;
      if (!in || input_dim == 0 || output_dim == 0 ||
          input_dim > kMaxDenseDim || output_dim > kMaxDenseDim ||
          input_dim * output_dim > kMaxDenseDim) {
        return Status::Corruption("bad dense shape in " + path);
      }
      Matrix weights(input_dim, output_dim);
      for (size_t r = 0; r < input_dim; ++r) {
        for (size_t c = 0; c < output_dim; ++c) {
          in >> weights(r, c);
        }
      }
      std::vector<float> bias(output_dim);
      for (float& value : bias) {
        in >> value;
      }
      if (!in) {
        return Status::Corruption("truncated dense layer in " + path);
      }
      mlp.AddLayer(std::make_unique<DenseLayer>(std::move(weights),
                                                std::move(bias)));
    } else {
      return Status::Corruption("unknown layer type '" + type + "' in " +
                                path);
    }
  }
  return mlp;
}

}  // namespace leapme::nn
