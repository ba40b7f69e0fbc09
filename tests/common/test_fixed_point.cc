/**
 * @file
 * Tests for the saturating fixed-point arithmetic of the hardware NN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"

namespace act
{
namespace
{

TEST(FixedPoint, ZeroByDefault)
{
    HwFixed v;
    EXPECT_EQ(v.raw(), 0);
    EXPECT_DOUBLE_EQ(v.toDouble(), 0.0);
}

TEST(FixedPoint, RoundTripWithinPrecision)
{
    for (const double v : {0.0, 1.0, -1.0, 0.5, -0.25, 3.14159, -2.71828,
                           100.0, -100.0}) {
        const HwFixed f = HwFixed::fromDouble(v);
        EXPECT_NEAR(f.toDouble(), v, 1.0 / HwFixed::kScale);
    }
}

TEST(FixedPoint, AdditionAndSubtraction)
{
    const HwFixed a = HwFixed::fromDouble(1.5);
    const HwFixed b = HwFixed::fromDouble(2.25);
    EXPECT_NEAR((a + b).toDouble(), 3.75, 1e-4);
    EXPECT_NEAR((a - b).toDouble(), -0.75, 1e-4);
}

TEST(FixedPoint, Multiplication)
{
    const HwFixed a = HwFixed::fromDouble(1.5);
    const HwFixed b = HwFixed::fromDouble(-2.0);
    EXPECT_NEAR((a * b).toDouble(), -3.0, 1e-3);
}

TEST(FixedPoint, SaturatesInsteadOfWrapping)
{
    const HwFixed big = HwFixed::fromDouble(30000.0);
    const HwFixed sum = big + big;
    // Q15.16 max is ~32768; the sum saturates rather than going
    // negative.
    EXPECT_GT(sum.toDouble(), 30000.0);
    const HwFixed prod = big * big;
    EXPECT_GT(prod.toDouble(), 30000.0);
}

TEST(FixedPoint, NegationAndComparison)
{
    const HwFixed a = HwFixed::fromDouble(1.25);
    EXPECT_NEAR((-a).toDouble(), -1.25, 1e-4);
    EXPECT_LT(-a, a);
    EXPECT_EQ(a, HwFixed::fromDouble(1.25));
}

TEST(FixedPoint, FromRaw)
{
    const auto v = HwFixed::fromRaw(1 << 16);
    EXPECT_DOUBLE_EQ(v.toDouble(), 1.0);
}

TEST(FixedPoint, DifferentPrecisions)
{
    using Q8 = FixedPoint<8>;
    const Q8 v = Q8::fromDouble(0.12345);
    // 8 fractional bits: resolution 1/256.
    EXPECT_NEAR(v.toDouble(), 0.12345, 1.0 / 256.0);
}

/**
 * Quantisation as the libm formula defines it: llround of the clamped
 * value, narrowed to int32, with NaN giving 0 (what glibc's llround
 * NaN result, LLONG_MIN, narrows to).
 */
template <int FracBits>
std::int32_t
llroundReference(double v)
{
    const double scaled = v * FixedPoint<FracBits>::kScale;
    if (std::isnan(scaled))
        return 0;
    const double lo = std::numeric_limits<std::int32_t>::min();
    const double hi = std::numeric_limits<std::int32_t>::max();
    return static_cast<std::int32_t>(
        std::llround(std::clamp(scaled, lo, hi)));
}

template <int FracBits>
void
expectFromDoubleMatchesLlround()
{
    using Fixed = FixedPoint<FracBits>;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
    const double lo = std::numeric_limits<std::int32_t>::min();
    const double hi = std::numeric_limits<std::int32_t>::max();
    std::vector<double> values{
        0.0, -0.0, kDenorm, -kDenorm, kInf, -kInf,
        std::numeric_limits<double>::quiet_NaN(), 1e300, -1e300,
        (hi + 0.5) / Fixed::kScale, (hi - 0.5) / Fixed::kScale,
        (lo + 0.5) / Fixed::kScale, (lo - 0.5) / Fixed::kScale};
    // Every half-step (k + 0.5) units of the last place, where the
    // rounding direction is decided.
    for (int k = -70000; k <= 70000; ++k)
        values.push_back((k + 0.5) / Fixed::kScale);
    const std::size_t listed = values.size();
    for (std::size_t i = 0; i < listed; ++i) {
        values.push_back(std::nextafter(values[i], kInf));
        values.push_back(std::nextafter(values[i], -kInf));
    }
    Rng rng(0xf1ed + FracBits);
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        values.push_back(v);
    }
    std::size_t mismatches = 0;
    for (const double v : values) {
        if (Fixed::fromDouble(v).raw() != llroundReference<FracBits>(v)) {
            ++mismatches;
            ADD_FAILURE() << "FracBits " << FracBits << " v=" << v;
            if (mismatches > 10)
                return;
        }
    }
}

TEST(FixedPoint, FromDoubleMatchesLlround)
{
    expectFromDoubleMatchesLlround<16>();
    expectFromDoubleMatchesLlround<8>();
    expectFromDoubleMatchesLlround<30>();
}

/** Property sweep: (a*b) in fixed point tracks double multiply. */
class FixedMulProperty
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(FixedMulProperty, TracksDoubleMultiply)
{
    const auto [a, b] = GetParam();
    const double exact = a * b;
    const double approx =
        (HwFixed::fromDouble(a) * HwFixed::fromDouble(b)).toDouble();
    EXPECT_NEAR(approx, exact,
                std::abs(exact) * 1e-3 + 4.0 / HwFixed::kScale);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, FixedMulProperty,
    ::testing::Values(std::pair{0.1, 0.1}, std::pair{-0.5, 0.25},
                      std::pair{2.0, -3.5}, std::pair{10.0, 10.0},
                      std::pair{-7.25, -0.125}, std::pair{0.0, 5.0}));

} // namespace
} // namespace act
