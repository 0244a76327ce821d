#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace {

using raq::tensor::col2im;
using raq::tensor::conv_out_dim;
using raq::tensor::im2col;
using raq::tensor::Shape;
using raq::tensor::Tensor;

TEST(Shape, SizeAndEquality) {
    const Shape s{2, 3, 4, 5};
    EXPECT_EQ(s.size(), 120u);
    EXPECT_EQ(s, (Shape{2, 3, 4, 5}));
    EXPECT_NE(s, (Shape{2, 3, 4, 6}));
    EXPECT_EQ(s.to_string(), "(2,3,4,5)");
}

TEST(Tensor, IndexingIsRowMajorNchw) {
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 42.0f;
    EXPECT_FLOAT_EQ(t[t.size() - 1], 42.0f);
    t.at(0, 0, 0, 1) = 7.0f;
    EXPECT_FLOAT_EQ(t[1], 7.0f);
}

TEST(Tensor, ConstructionValidatesSize) {
    EXPECT_THROW(Tensor({1, 1, 2, 2}, std::vector<float>{1, 2, 3}), std::invalid_argument);
    EXPECT_NO_THROW(Tensor({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4}));
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t({1, 2, 2, 2});
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
    t.reshape({1, 8, 1, 1});
    EXPECT_EQ(t.shape().c, 8);
    EXPECT_FLOAT_EQ(t[5], 5.0f);
    EXPECT_THROW(t.reshape({1, 7, 1, 1}), std::invalid_argument);
}

TEST(ConvOutDim, StandardCases) {
    EXPECT_EQ(conv_out_dim(16, 3, 1, 1), 16);
    EXPECT_EQ(conv_out_dim(16, 3, 2, 1), 8);
    EXPECT_EQ(conv_out_dim(16, 2, 2, 0), 8);
    EXPECT_EQ(conv_out_dim(5, 5, 1, 0), 1);
    EXPECT_THROW((void)conv_out_dim(2, 5, 1, 0), std::invalid_argument);
}

TEST(Im2Col, IdentityKernelIsPassthrough) {
    Tensor in({1, 2, 3, 3});
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i + 1);
    std::vector<float> cols;
    int oh = 0, ow = 0;
    im2col(in, 1, 1, 1, 0, cols, oh, ow);
    EXPECT_EQ(oh, 3);
    EXPECT_EQ(ow, 3);
    ASSERT_EQ(cols.size(), in.size());
    for (std::size_t i = 0; i < cols.size(); ++i) EXPECT_FLOAT_EQ(cols[i], in[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
    Tensor in({1, 1, 2, 2});
    in.fill(1.0f);
    std::vector<float> cols;
    int oh = 0, ow = 0;
    im2col(in, 3, 3, 1, 1, cols, oh, ow);
    EXPECT_EQ(oh, 2);
    EXPECT_EQ(ow, 2);
    // Top-left patch: corner positions fall outside -> zero.
    EXPECT_FLOAT_EQ(cols[0], 0.0f);  // row 0 (ky=0,kx=0), col 0
}

TEST(Im2ColCol2Im, AdjointProperty) {
    // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
    // property that makes the conv backward pass correct.
    raq::common::Rng rng(0x1234);
    const Shape s{2, 3, 6, 6};
    Tensor x(s);
    for (auto& v : x.vec()) v = static_cast<float>(rng.next_gaussian());
    std::vector<float> xcols;
    int oh = 0, ow = 0;
    im2col(x, 3, 3, 2, 1, xcols, oh, ow);
    std::vector<float> y(xcols.size());
    for (auto& v : y) v = static_cast<float>(rng.next_gaussian());
    Tensor x_back;
    col2im(y, s, 3, 3, 2, 1, x_back);

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < xcols.size(); ++i) lhs += static_cast<double>(xcols[i]) * y[i];
    for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * x_back[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-3);
}

void reference_gemm(const std::vector<float>& a, const std::vector<float>& b,
                    std::vector<float>& c, std::size_t m, std::size_t k, std::size_t n) {
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0;
            for (std::size_t p = 0; p < k; ++p)
                acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
            c[i * n + j] = static_cast<float>(acc);
        }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
    const auto [m, k, n] = GetParam();
    raq::common::Rng rng(77);
    std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = static_cast<float>(rng.next_gaussian());
    for (auto& v : b) v = static_cast<float>(rng.next_gaussian());
    std::vector<float> expect(static_cast<std::size_t>(m * n));
    reference_gemm(a, b, expect, static_cast<std::size_t>(m), static_cast<std::size_t>(k),
                   static_cast<std::size_t>(n));

    std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
    raq::tensor::gemm(a.data(), b.data(), c.data(), static_cast<std::size_t>(m),
                      static_cast<std::size_t>(k), static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], expect[i], 1e-3);

    // A^T variant: store A transposed as [k, m].
    std::vector<float> at(static_cast<std::size_t>(m * k));
    for (int i = 0; i < m; ++i)
        for (int p = 0; p < k; ++p)
            at[static_cast<std::size_t>(p * m + i)] = a[static_cast<std::size_t>(i * k + p)];
    std::fill(c.begin(), c.end(), 0.0f);
    raq::tensor::gemm_at(at.data(), b.data(), c.data(), static_cast<std::size_t>(m),
                         static_cast<std::size_t>(k), static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], expect[i], 1e-3);

    // B^T variant: store B transposed as [n, k].
    std::vector<float> bt(static_cast<std::size_t>(k * n));
    for (int p = 0; p < k; ++p)
        for (int j = 0; j < n; ++j)
            bt[static_cast<std::size_t>(j * k + p)] = b[static_cast<std::size_t>(p * n + j)];
    std::fill(c.begin(), c.end(), 0.0f);
    raq::tensor::gemm_bt(a.data(), bt.data(), c.data(), static_cast<std::size_t>(m),
                         static_cast<std::size_t>(k), static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < c.size(); ++i) ASSERT_NEAR(c[i], expect[i], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                                           std::make_tuple(16, 9, 32),
                                           std::make_tuple(8, 64, 8),
                                           std::make_tuple(10, 10, 1)));

TEST(Gemm, AccumulateFlagAddsToExisting) {
    const std::vector<float> a{1, 2};
    const std::vector<float> b{3, 4};
    std::vector<float> c{10.0f};
    raq::tensor::gemm(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/true);
    EXPECT_FLOAT_EQ(c[0], 10.0f + 3.0f + 8.0f);
    raq::tensor::gemm(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/false);
    EXPECT_FLOAT_EQ(c[0], 11.0f);
}

}  // namespace
