#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/matmul.hpp"

namespace xbarlife::nn {

Conv2D::Conv2D(ConvGeometry geometry, std::size_t out_channels, Rng& rng,
               std::string name)
    : Layer(std::move(name)),
      geometry_(geometry),
      out_channels_(out_channels),
      weight_(Shape{geometry.patch_size(), out_channels}),
      bias_(Shape{out_channels}),
      weight_grad_(Shape{geometry.patch_size(), out_channels}),
      bias_grad_(Shape{out_channels}) {
  geometry_.validate();
  XB_CHECK(out_channels > 0, "Conv2D needs at least one output channel");
  const auto scale = static_cast<float>(
      std::sqrt(2.0 / static_cast<double>(geometry_.patch_size())));
  weight_.fill_gaussian(rng, 0.0f, scale);
}

Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
  const std::size_t per_sample =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == per_sample,
           "Conv2D " + name() + " expected (batch, " +
               std::to_string(per_sample) + "), got " +
               input.shape().to_string());
  const std::size_t batch = input.shape()[0];
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const std::size_t out_row = out_channels_ * pixels;
  Tensor out(Shape{batch, out_row});
  const Tensor weight_t = weight_.transposed();  // (out_ch, patch)
  const float* bias = bias_.data();
  patches_.resize(batch);  // surviving buffers are reused
  // Samples are independent: each writes its own patches_ slot and its own
  // row of `out`, so the batch fans out across the pool bit-identically.
  parallel_for(0, batch, 1, [&](std::size_t b_begin, std::size_t b_end) {
    for (std::size_t b = b_begin; b < b_end; ++b) {
      im2col_transposed(input.flat().subspan(b * per_sample, per_sample),
                        geometry_, patches_[b]);
      // (out_ch, patch) * (patch, pixels) -> (out_ch, pixels): the
      // channel-major NCHW layout downstream pooling reads, written
      // straight into the sample's row.
      float* y = out.data() + b * out_row;
      matmul_accumulate(weight_t, patches_[b], std::span(y, out_row));
      for (std::size_t c = 0; c < out_channels_; ++c) {
        float* channel = y + c * pixels;
        for (std::size_t p = 0; p < pixels; ++p) {
          channel[p] += bias[c];
        }
      }
    }
  });
  return out;
}

Tensor Conv2D::forward_quantized(const Tensor& input, const QuantSpec& spec) {
  const std::size_t per_sample =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == per_sample,
           "Conv2D " + name() + " expected (batch, " +
               std::to_string(per_sample) + "), got " +
               input.shape().to_string());
  const std::size_t batch = input.shape()[0];
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const std::size_t out_row = out_channels_ * pixels;
  // One weight coding shared by the whole batch; activations are coded
  // per sample (each sample's im2col patches get their own range). The
  // training-path patches_ cache is left untouched — this is an
  // inference-only path.
  const QuantizedTensor qw = quantize_weights(weight_, spec);
  const float* bias = bias_.data();
  Tensor out(Shape{batch, out_row});
  parallel_for(0, batch, 1, [&](std::size_t b_begin, std::size_t b_end) {
    for (std::size_t b = b_begin; b < b_end; ++b) {
      const Tensor patches = im2col(
          input.flat().subspan(b * per_sample, per_sample), geometry_);
      const QuantizedTensor qa = quantize_activations(patches);
      // (pixels, out_ch), transposed into the sample's channel-major row.
      const Tensor y = quantized_linear(qa, qw, nullptr);
      const float* yp = y.data();
      float* row = out.data() + b * out_row;
      for (std::size_t c = 0; c < out_channels_; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) {
          row[c * pixels + p] = yp[p * out_channels_ + c] + bias[c];
        }
      }
    }
  });
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const std::size_t batch = patches_.size();
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const std::size_t out_row = out_channels_ * pixels;
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == batch &&
               grad_output.shape()[1] == out_row,
           "Conv2D backward shape mismatch");
  const std::size_t per_sample =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  Tensor grad_input(Shape{batch, per_sample});
  // Per-sample weight/bias contributions land in index-addressed slots and
  // are merged in sample order below, so the accumulated gradients do not
  // depend on the thread count.
  std::vector<Tensor> wgrad_partial(batch);
  std::vector<Tensor> bgrad_partial(batch);
  parallel_for(0, batch, 1, [&](std::size_t b_begin, std::size_t b_end) {
    for (std::size_t b = b_begin; b < b_end; ++b) {
      // Rebuild the (pixels, out_ch) gradient for this sample; each bias
      // gradient sums its channel in ascending pixel order.
      const float* g = grad_output.data() + b * out_row;
      Tensor gy(Shape{pixels, out_channels_});
      Tensor bg(Shape{out_channels_});
      float* gyp = gy.data();
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* channel = g + c * pixels;
        float sum = 0.0f;
        for (std::size_t p = 0; p < pixels; ++p) {
          gyp[p * out_channels_ + c] = channel[p];
          sum += channel[p];
        }
        bg.data()[c] = sum;
      }
      // dW += patches^T gy ; dPatches = gy W^T ; dX = col2im(dPatches).
      // The cache already holds patches^T, so dW is a plain product.
      wgrad_partial[b] = matmul(patches_[b], gy);
      bgrad_partial[b] = std::move(bg);
      const Tensor gimage = col2im(matmul_nt(gy, weight_), geometry_);
      std::copy_n(gimage.data(), per_sample,
                  grad_input.data() + b * per_sample);
    }
  });
  for (std::size_t b = 0; b < batch; ++b) {
    weight_grad_.add_(wgrad_partial[b]);
    bias_grad_.add_(bgrad_partial[b]);
  }
  return grad_input;
}

std::vector<ParamRef> Conv2D::params() {
  return {
      {name() + ".weight", &weight_, &weight_grad_, /*mappable=*/true},
      {name() + ".bias", &bias_, &bias_grad_, /*mappable=*/false},
  };
}

std::size_t Conv2D::output_features(std::size_t input_features) const {
  XB_CHECK(input_features ==
               geometry_.in_channels * geometry_.in_h * geometry_.in_w,
           "Conv2D feature-count mismatch in topology");
  return out_channels_ * geometry_.out_h() * geometry_.out_w();
}

}  // namespace xbarlife::nn
