// 2-D convolution layer (square kernels) lowered to GEMM via im2col.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace xbarlife::nn {

/// Convolution over NCHW inputs flattened to (batch, C*H*W) rows.
///
/// The kernel tensor is stored as a (patch_size, out_channels) matrix W —
/// the orientation the crossbar mapper expects (inputs drive rows, output
/// channels are columns), in which the per-sample product is
/// `im2col(x) * W`. The float path computes its transpose instead,
/// `W^T * im2col(x)^T`, which lands directly in the channel-major NCHW
/// output row and keeps the SIMD tile full when out_channels is small.
/// Each output element is the same ascending-k chain either way, so the
/// bits match `im2col(x) * W` per kernel variant (docs/kernels.md,
/// "Convolution lowering").
class Conv2D final : public Layer {
 public:
  Conv2D(ConvGeometry geometry, std::size_t out_channels, Rng& rng,
         std::string name);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward_quantized(const Tensor& input,
                           const QuantSpec& spec) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::size_t output_features(std::size_t input_features) const override;
  LayerKind kind() const override { return LayerKind::kConv; }

  const ConvGeometry& geometry() const { return geometry_; }
  std::size_t out_channels() const { return out_channels_; }
  const Tensor& weight() const { return weight_; }

 private:
  ConvGeometry geometry_;
  std::size_t out_channels_;
  Tensor weight_;       // (patch_size, out_channels)
  Tensor bias_;         // (out_channels)
  Tensor weight_grad_;
  Tensor bias_grad_;
  // Cached im2col(x)^T per sample of the last forward, (patch_size,
  // pixels); the buffers are reused across calls.
  std::vector<Tensor> patches_;
};

}  // namespace xbarlife::nn
