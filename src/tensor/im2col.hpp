// im2col / col2im lowering for convolution.
//
// Convolutions in the NN substrate are computed as GEMMs over im2col
// patches, matching how the crossbar executes them: each output pixel's
// receptive field becomes one input vector applied to the weight matrix.
// nn::Conv2D runs the same product in channel-major orientation over the
// transposed patch matrix (see im2col_transposed and docs/kernels.md).
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.hpp"

namespace xbarlife {

struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;   // square kernels
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the patch matrix = size of one receptive field.
  std::size_t patch_size() const { return in_channels * kernel * kernel; }
  /// Validates that the geometry is realizable.
  void validate() const;
};

/// Lowers a single image (C x H x W flat tensor of numel C*H*W) into a patch
/// matrix of shape (out_h*out_w, patch_size).
Tensor im2col(const Tensor& image, const ConvGeometry& g);
Tensor im2col(std::span<const float> image, const ConvGeometry& g);

/// Channel-major lowering: writes im2col(image).transposed() — shape
/// (patch_size, out_h*out_w), one row per receptive-field position — into
/// `out`, reusing its storage when it already has that shape. Each row
/// gathers whole output-row runs of the image, so a stride-1 convolution
/// copies out_w-float runs instead of kernel-float ones.
void im2col_transposed(std::span<const float> image, const ConvGeometry& g,
                       Tensor& out);

/// Adjoint of im2col: scatters a patch-gradient matrix of shape
/// (out_h*out_w, patch_size) back into an image gradient (flat C*H*W).
Tensor col2im(const Tensor& patches, const ConvGeometry& g);

}  // namespace xbarlife
