/**
 * @file
 * Tests for the fixed-point sigmoid lookup table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "hwnn/sigmoid_table.hh"

namespace act
{
namespace
{

TEST(SigmoidTable, CenterIsHalf)
{
    const SigmoidTable table;
    EXPECT_NEAR(table.lookup(HwFixed::fromDouble(0.0)).toDouble(), 0.5,
                0.02);
}

TEST(SigmoidTable, SaturatesAtRangeEnds)
{
    const SigmoidTable table;
    EXPECT_NEAR(table.lookup(HwFixed::fromDouble(20.0)).toDouble(), 1.0,
                0.01);
    EXPECT_NEAR(table.lookup(HwFixed::fromDouble(-20.0)).toDouble(), 0.0,
                0.01);
}

TEST(SigmoidTable, SymmetryProperty)
{
    const SigmoidTable table;
    for (double x = 0.0; x < 8.0; x += 0.37) {
        const double pos = table.lookup(HwFixed::fromDouble(x)).toDouble();
        const double neg =
            table.lookup(HwFixed::fromDouble(-x)).toDouble();
        EXPECT_NEAR(pos + neg, 1.0, 0.002) << "x=" << x;
    }
}

TEST(SigmoidTable, MonotoneNonDecreasing)
{
    const SigmoidTable table;
    double prev = 0.0;
    for (double x = -8.0; x <= 8.0; x += 0.05) {
        const double v = table.lookup(HwFixed::fromDouble(x)).toDouble();
        EXPECT_GE(v, prev - 1e-9) << "x=" << x;
        prev = v;
    }
}

/** Resolution sweep: more entries = tighter worst-case error. */
class SigmoidResolution : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SigmoidResolution, ErrorBoundedByResolution)
{
    const SigmoidTable table(GetParam());
    // The table uses index truncation; the worst-case error is about
    // one slope-step: d/dx sigmoid <= 0.25, step = range / entries.
    const double bound =
        0.3 * SigmoidTable::kInputRange / static_cast<double>(GetParam()) +
        0.002;
    EXPECT_LE(table.maxAbsError(), bound);
}

INSTANTIATE_TEST_SUITE_P(Entries, SigmoidResolution,
                         ::testing::Values(64, 256, 1024));

TEST(SigmoidTable, IntegerIndexMatchesDoubleFormula)
{
    for (const std::size_t entries : {2, 3, 16, 256, 1024}) {
        const SigmoidTable table(entries);
        // The entries as the constructor computes them, so a lookup
        // can be checked against the entry the double index selects.
        const double last = static_cast<double>(entries - 1);
        std::vector<HwFixed> positive;
        std::vector<HwFixed> negative;
        for (std::size_t i = 0; i < entries; ++i) {
            const double x = SigmoidTable::kInputRange *
                             static_cast<double>(i) / last;
            positive.push_back(
                HwFixed::fromDouble(1.0 / (1.0 + std::exp(-x))));
            negative.push_back(HwFixed::fromDouble(1.0) - positive.back());
        }
        const auto expect_lookup = [&](std::int64_t raw) {
            const HwFixed x = HwFixed::fromRaw(static_cast<std::int32_t>(raw));
            // The index formula before it moved to integers.
            const double mag = std::abs(x.toDouble());
            const auto index = static_cast<std::size_t>(
                std::min(mag / SigmoidTable::kInputRange * last, last));
            const HwFixed expected =
                x.raw() < 0 ? negative[index] : positive[index];
            if (table.lookup(x) != expected) {
                ADD_FAILURE() << "entries " << entries << " raw " << raw;
                return false;
            }
            return true;
        };
        std::vector<std::int64_t> raws{
            std::numeric_limits<std::int32_t>::min(),
            std::numeric_limits<std::int32_t>::max()};
        // Index i starts at ceil(i * 2^19 / (entries - 1)).
        const auto last_index = static_cast<std::int64_t>(entries - 1);
        for (std::int64_t i = 1; i <= last_index; ++i) {
            const std::int64_t boundary =
                ((i << SigmoidTable::kIndexShift) + last_index - 1) /
                last_index;
            for (const std::int64_t raw :
                 {boundary - 1, boundary, boundary + 1}) {
                raws.push_back(raw);
                raws.push_back(-raw);
            }
        }
        for (std::int64_t raw = -(1 << 20); raw <= (1 << 20); ++raw)
            raws.push_back(raw);
        for (const std::int64_t raw : raws) {
            if (!expect_lookup(raw))
                break;
        }
    }
}

TEST(SigmoidTable, DefaultAccuracyGoodEnoughForInference)
{
    const SigmoidTable table;
    EXPECT_LT(table.maxAbsError(), 0.012);
}

} // namespace
} // namespace act
