#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife {
namespace {

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 32, 32, 5, 1, 0};
  EXPECT_EQ(g.out_h(), 28u);
  EXPECT_EQ(g.out_w(), 28u);
  EXPECT_EQ(g.patch_size(), 75u);

  ConvGeometry padded{1, 8, 8, 3, 1, 1};
  EXPECT_EQ(padded.out_h(), 8u);
  EXPECT_EQ(padded.out_w(), 8u);

  ConvGeometry strided{1, 8, 8, 2, 2, 0};
  EXPECT_EQ(strided.out_h(), 4u);
}

TEST(ConvGeometry, ValidationErrors) {
  ConvGeometry zero{0, 8, 8, 3, 1, 0};
  EXPECT_THROW(zero.validate(), InvalidArgument);
  ConvGeometry big_kernel{1, 4, 4, 9, 1, 0};
  EXPECT_THROW(big_kernel.validate(), InvalidArgument);
  ConvGeometry zero_stride{1, 8, 8, 3, 0, 0};
  EXPECT_THROW(zero_stride.validate(), InvalidArgument);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1x1 kernel: the patch matrix is just the image pixels, row per pixel.
  ConvGeometry g{2, 3, 3, 1, 1, 0};
  Tensor image(Shape{2 * 3 * 3});
  for (std::size_t i = 0; i < image.numel(); ++i) {
    image[i] = static_cast<float>(i);
  }
  Tensor patches = im2col(image, g);
  EXPECT_EQ(patches.shape(), (Shape{9, 2}));
  EXPECT_FLOAT_EQ(patches.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(patches.at(0, 1), 9.0f);
  EXPECT_FLOAT_EQ(patches.at(8, 0), 8.0f);
}

TEST(Im2col, KnownPatchValues) {
  ConvGeometry g{1, 3, 3, 2, 1, 0};
  Tensor image(Shape{9}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7, 8});
  Tensor patches = im2col(image, g);
  EXPECT_EQ(patches.shape(), (Shape{4, 4}));
  // Top-left patch: rows (0,1), (3,4)
  EXPECT_FLOAT_EQ(patches.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(patches.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(patches.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(patches.at(0, 3), 4.0f);
  // Bottom-right patch: (4,5),(7,8)
  EXPECT_FLOAT_EQ(patches.at(3, 0), 4.0f);
  EXPECT_FLOAT_EQ(patches.at(3, 3), 8.0f);
}

TEST(Im2col, PaddingYieldsZeros) {
  ConvGeometry g{1, 2, 2, 3, 1, 1};
  Tensor image(Shape{4}, std::vector<float>{1, 2, 3, 4});
  Tensor patches = im2col(image, g);
  EXPECT_EQ(patches.shape(), (Shape{4, 9}));
  // First patch is centered at (0,0): top row fully padding.
  EXPECT_FLOAT_EQ(patches.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(patches.at(0, 4), 1.0f);  // center = pixel (0,0)
}

TEST(Im2col, InputSizeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 3, 1, 0};
  EXPECT_THROW(im2col(Tensor(Shape{15}), g), InvalidArgument);
}

TEST(Im2colTransposed, ReusesBufferAndRewritesEveryElement) {
  // Padded, strided and non-square: every lowered element, zero padding
  // included, must be rewritten when the buffer is reused.
  ConvGeometry g{2, 7, 6, 3, 2, 1};
  Rng rng(5);
  Tensor first(Shape{g.in_channels * g.in_h * g.in_w});
  first.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor second(first.shape());
  second.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor lowered(Shape{3, 3}, 42.0f);  // wrong shape: replaced
  im2col_transposed(first.flat(), g, lowered);
  EXPECT_TRUE(lowered == im2col(first, g).transposed());
  const float* storage = lowered.data();
  lowered.fill(42.0f);
  im2col_transposed(second.flat(), g, lowered);
  EXPECT_EQ(lowered.data(), storage);  // same shape: buffer reused
  EXPECT_TRUE(lowered == im2col(second, g).transposed());
}

TEST(Im2colTransposed, InputSizeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 3, 1, 0};
  Tensor image(Shape{15});
  Tensor out;
  EXPECT_THROW(im2col_transposed(image.flat(), g, out), InvalidArgument);
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
  // checked with random tensors.
  ConvGeometry g{2, 6, 5, 3, 1, 1};
  Rng rng(11);
  Tensor x(Shape{g.in_channels * g.in_h * g.in_w});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor y(Shape{g.out_h() * g.out_w(), g.patch_size()});
  y.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor ax = im2col(x, g);
  Tensor aty = col2im(y, g);
  double lhs = 0.0;
  for (std::size_t i = 0; i < ax.numel(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2im, ShapeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 3, 1, 0};
  EXPECT_THROW(col2im(Tensor(Shape{3, 3}), g), InvalidArgument);
}

class Im2colGeometrySweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> {};

TEST_P(Im2colGeometrySweep, RoundtripAdjointHolds) {
  const auto [channels, side, kernel, pad] = GetParam();
  ConvGeometry g{channels, side, side, kernel, 1, pad};
  g.validate();
  Rng rng(channels * 100 + side * 10 + kernel);
  Tensor x(Shape{g.in_channels * g.in_h * g.in_w});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor y(Shape{g.out_h() * g.out_w(), g.patch_size()});
  y.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor ax = im2col(x, g);
  Tensor aty = col2im(y, g);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < ax.numel(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST_P(Im2colGeometrySweep, TransposedLoweringEqualsIm2colTransposed) {
  const auto [channels, side, kernel, pad] = GetParam();
  for (const std::size_t stride : {1u, 2u}) {
    ConvGeometry g{channels, side, side, kernel, stride, pad};
    Rng rng(channels * 100 + side * 10 + kernel + stride);
    Tensor x(Shape{g.in_channels * g.in_h * g.in_w});
    x.fill_gaussian(rng, 0.0f, 1.0f);
    Tensor lowered;
    im2col_transposed(x.flat(), g, lowered);
    EXPECT_TRUE(lowered == im2col(x, g).transposed()) << "stride " << stride;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colGeometrySweep,
    ::testing::Values(std::make_tuple(1, 5, 3, 0), std::make_tuple(1, 5, 3, 1),
                      std::make_tuple(3, 8, 5, 2), std::make_tuple(2, 7, 1, 0),
                      std::make_tuple(4, 6, 3, 1),
                      std::make_tuple(1, 12, 5, 0)));

}  // namespace
}  // namespace xbarlife
