#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"

namespace xbarlife {

void ConvGeometry::validate() const {
  XB_CHECK(in_channels > 0 && in_h > 0 && in_w > 0, "empty conv input");
  XB_CHECK(kernel > 0, "kernel must be positive");
  XB_CHECK(stride > 0, "stride must be positive");
  XB_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
           "kernel larger than padded input");
}

Tensor im2col(const Tensor& image, const ConvGeometry& g) {
  return im2col(image.flat(), g);
}

Tensor im2col(std::span<const float> image, const ConvGeometry& g) {
  g.validate();
  XB_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
           "im2col input numel mismatch");
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  Tensor patches(Shape{oh * ow, g.patch_size()});
  const float* src = image.data();
  float* dst = patches.data();
  const kernels::KernelSet& ks = kernels::select();
  // Each output row owns a disjoint slice of `patches`, so the gather can
  // fan out over rows without changing any result bit (the kernel row
  // copy is pure data movement, identical across dispatch variants).
  parallel_for(0, oh, 8, [&](std::size_t oy_begin, std::size_t oy_end) {
    for (std::size_t oy = oy_begin; oy < oy_end; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* row = dst + (oy * ow + ox) * g.patch_size();
        // For fixed (ox, ky) the source column ix = ox*stride + kx - pad
        // advances by exactly 1 per kx, so each kernel row splits into
        // left zero-pad, one contiguous copy, and right zero-pad.
        const auto base = static_cast<long long>(ox * g.stride) -
                          static_cast<long long>(g.pad);
        const auto kernel_ll = static_cast<long long>(g.kernel);
        const long long lo = std::clamp(-base, 0LL, kernel_ll);
        const long long hi =
            std::clamp(static_cast<long long>(g.in_w) - base, lo, kernel_ll);
        std::size_t idx = 0;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky, idx += g.kernel) {
            // Signed arithmetic for the padded coordinate.
            const auto iy = static_cast<long long>(oy * g.stride + ky) -
                            static_cast<long long>(g.pad);
            if (iy < 0 || iy >= static_cast<long long>(g.in_h) || hi == lo) {
              std::fill(row + idx, row + idx + g.kernel, 0.0f);
              continue;
            }
            const float* src_row =
                src + (c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w;
            std::fill(row + idx, row + idx + static_cast<std::size_t>(lo),
                      0.0f);
            const auto run = static_cast<std::size_t>(hi - lo);
            // An indirect kernel call costs more than it saves on the
            // few-float runs of small convolutions; copy those inline.
            if (run < 16) {
              std::copy_n(src_row + base + lo, run,
                          row + idx + static_cast<std::size_t>(lo));
            } else {
              ks.copy_row(src_row + base + lo,
                          row + idx + static_cast<std::size_t>(lo), run);
            }
            std::fill(row + idx + static_cast<std::size_t>(hi),
                      row + idx + g.kernel, 0.0f);
          }
        }
      }
    }
  });
  return patches;
}

void im2col_transposed(std::span<const float> image, const ConvGeometry& g,
                       Tensor& out) {
  g.validate();
  XB_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
           "im2col input numel mismatch");
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t pixels = oh * ow;
  const Shape shape{g.patch_size(), pixels};
  if (out.shape() != shape) {
    out = Tensor(shape);
  }
  const float* src = image.data();
  float* dst = out.data();
  const auto pad = static_cast<long long>(g.pad);
  const auto stride = static_cast<long long>(g.stride);
  const auto in_h = static_cast<long long>(g.in_h);
  const auto in_w = static_cast<long long>(g.in_w);
  const auto ow_ll = static_cast<long long>(ow);
  // Divisions cost more than the short runs they bound; skip them for
  // the common stride-1 case.
  const auto div = [stride](long long v) {
    return stride == 1 ? v : v / stride;
  };
  // Each channel owns a disjoint block of patch rows; like im2col, the
  // gather is pure data movement and fans out bit-identically.
  parallel_for(0, g.in_channels, 1, [&](std::size_t c_begin,
                                        std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      float* prow = dst + c * g.kernel * g.kernel * pixels;
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        for (std::size_t kx = 0; kx < g.kernel; ++kx, prow += pixels) {
          // Output columns [lo, hi) read the in-bounds source columns
          // ix = ox*stride + shift; the rest are zero padding.
          const long long shift = static_cast<long long>(kx) - pad;
          const long long lo =
              shift >= 0 ? 0 : std::min(ow_ll, div(stride - 1 - shift));
          const long long last = in_w - 1 - shift;
          const long long hi =
              last < 0 ? lo : std::clamp(div(last) + 1, lo, ow_ll);
          for (std::size_t oy = 0; oy < oh; ++oy) {
            float* row = prow + oy * ow;
            const long long iy =
                static_cast<long long>(oy * g.stride + ky) - pad;
            if (iy < 0 || iy >= in_h) {
              std::fill(row, row + ow, 0.0f);
              continue;
            }
            const float* src_row =
                src + (c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w;
            // Fills and copies compile to memset/memcpy calls, which cost
            // more than the few floats of a short run (deep layers have
            // out_w of a few pixels): skip empty fills, copy short runs
            // inline.
            if (lo > 0) {
              std::fill(row, row + lo, 0.0f);
            }
            if (stride == 1 && hi - lo >= 8) {
              std::copy_n(src_row + lo + shift, hi - lo, row + lo);
            } else {
              for (long long ox = lo; ox < hi; ++ox) {
                row[ox] = src_row[ox * stride + shift];
              }
            }
            if (hi < ow_ll) {
              std::fill(row + hi, row + ow_ll, 0.0f);
            }
          }
        }
      }
    }
  });
}

Tensor col2im(const Tensor& patches, const ConvGeometry& g) {
  g.validate();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  XB_CHECK(patches.shape().rank() == 2 &&
               patches.shape()[0] == oh * ow &&
               patches.shape()[1] == g.patch_size(),
           "col2im patch shape mismatch");
  Tensor image(Shape{g.in_channels * g.in_h * g.in_w});
  float* dst = image.data();
  const float* src = patches.data();
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* row = src + (oy * ow + ox) * g.patch_size();
      std::size_t idx = 0;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          const auto iy = static_cast<long long>(oy * g.stride + ky) -
                          static_cast<long long>(g.pad);
          for (std::size_t kx = 0; kx < g.kernel; ++kx, ++idx) {
            const auto ix = static_cast<long long>(ox * g.stride + kx) -
                            static_cast<long long>(g.pad);
            if (iy >= 0 && ix >= 0 &&
                iy < static_cast<long long>(g.in_h) &&
                ix < static_cast<long long>(g.in_w)) {
              dst[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                  static_cast<std::size_t>(ix)] += row[idx];
            }
          }
        }
      }
    }
  }
  return image;
}

}  // namespace xbarlife
