/**
 * @file
 * Tests for selective weight protection: sensitivity probing,
 * checksumming, the guarded-fraction budget and in-place repair.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "act/weight_store.hh"
#include "analysis/config_check.hh"
#include "faults/weight_guard.hh"

namespace act
{
namespace
{

std::vector<double>
rampWeights(std::size_t count, double base)
{
    std::vector<double> weights(count);
    for (std::size_t i = 0; i < count; ++i)
        weights[i] = base + 0.01 * static_cast<double>(i);
    return weights;
}

WeightStore
makeStore(std::uint32_t threads)
{
    WeightStore store(Topology{2, 6});
    for (std::uint32_t tid = 0; tid < threads; ++tid)
        store.set(tid, rampWeights(store.weightCount(),
                                   0.1 + 0.05 * tid));
    return store;
}

TEST(Sensitivity, ProbesPartitionIntoDetectableAndSilent)
{
    const std::vector<double> weights = rampWeights(20, 0.25);
    const WeightSensitivity s = probeWeightSensitivity(
        7, weights, 64, 0x5ead5, kHwWeightLimit);
    EXPECT_EQ(s.tid, 7u);
    EXPECT_EQ(s.probes, 64u);
    EXPECT_EQ(s.detectable + s.silent, s.probes);
    // Single-bit flips over IEEE-754 doubles hit both regimes: most
    // exponent flips blow past the Q15.16 limit (detectable), most
    // mantissa flips do not (silent).
    EXPECT_GT(s.detectable, 0u);
    EXPECT_GT(s.silent, 0u);
    EXPECT_GT(s.silent_damage, 0.0);
}

TEST(Sensitivity, ProbingIsAPureFunctionOfItsSeeds)
{
    const std::vector<double> weights = rampWeights(20, 0.25);
    const WeightSensitivity a = probeWeightSensitivity(
        3, weights, 48, 0x1111, kHwWeightLimit);
    const WeightSensitivity b = probeWeightSensitivity(
        3, weights, 48, 0x1111, kHwWeightLimit);
    EXPECT_EQ(a.detectable, b.detectable);
    EXPECT_EQ(a.silent, b.silent);
    EXPECT_EQ(a.silent_damage, b.silent_damage);
    // A different seed probes different (register, bit) pairs.
    const WeightSensitivity c = probeWeightSensitivity(
        3, weights, 48, 0x2222, kHwWeightLimit);
    EXPECT_TRUE(c.detectable != a.detectable ||
                c.silent_damage != a.silent_damage);
}

TEST(WeightChecksum, DetectsAnySingleBitFlip)
{
    std::vector<double> weights = rampWeights(16, 0.5);
    const std::uint64_t clean = weightChecksum(weights);
    EXPECT_EQ(weightChecksum(weights), clean); // Stable.

    for (const std::size_t reg : {0u, 7u, 15u}) {
        for (const std::uint64_t bit : {0u, 23u, 52u, 63u}) {
            std::vector<double> flipped = weights;
            std::uint64_t raw = 0;
            std::memcpy(&raw, &flipped[reg], sizeof(raw));
            raw ^= 1ULL << bit;
            std::memcpy(&flipped[reg], &raw, sizeof(raw));
            EXPECT_NE(weightChecksum(flipped), clean)
                << "reg " << reg << " bit " << bit;
        }
    }
}

TEST(WeightGuard, GuardsTheConfiguredFractionMostSensitiveFirst)
{
    const WeightStore store = makeStore(8);
    WeightProtectionConfig config;
    config.enabled = true;
    config.protect_fraction = 0.5;
    const WeightGuard guard = WeightGuard::build(store, config);

    // ceil(0.5 x 8 sets) = 4 guarded; ranking covers every set.
    EXPECT_EQ(guard.guardedCount(), 4u);
    ASSERT_EQ(guard.ranking().size(), 8u);
    // The ranking is ordered, and the guarded ids are its head.
    for (std::size_t i = 0; i + 1 < guard.ranking().size(); ++i) {
        EXPECT_GE(guard.ranking()[i].silent_damage,
                  guard.ranking()[i + 1].silent_damage);
    }
    for (std::size_t i = 0; i < guard.ranking().size(); ++i) {
        EXPECT_EQ(guard.guarded(guard.ranking()[i].tid), i < 4)
            << "rank " << i;
    }
}

TEST(WeightGuard, InspectRepairsAFlippedGuardedSet)
{
    const WeightStore store = makeStore(2);
    WeightProtectionConfig config;
    config.enabled = true;
    config.protect_fraction = 1.0;
    const WeightGuard guard = WeightGuard::build(store, config);
    EXPECT_EQ(guard.guardedCount(), 2u); // The full fraction: every set.

    const std::vector<double> clean = *store.get(0);
    std::vector<double> damaged = clean;
    std::uint64_t raw = 0;
    std::memcpy(&raw, &damaged[3], sizeof(raw));
    raw ^= 1ULL << 41; // An in-range (silent) perturbation.
    std::memcpy(&damaged[3], &raw, sizeof(raw));
    ASSERT_NE(damaged, clean);

    EXPECT_TRUE(guard.inspect(0, damaged));
    EXPECT_EQ(damaged, clean); // Shadow copy restored in place.
}

TEST(WeightGuard, InspectLeavesCleanAndUnguardedSetsAlone)
{
    const WeightStore store = makeStore(4);
    WeightProtectionConfig config;
    config.enabled = true;
    config.protect_fraction = 0.25; // ceil(0.25 x 4) = 1 guarded set.
    const WeightGuard guard = WeightGuard::build(store, config);
    ASSERT_EQ(guard.guardedCount(), 1u);
    const ThreadId guarded_tid = guard.ranking()[0].tid;

    // A clean guarded set verifies and is untouched.
    std::vector<double> clean = *store.get(guarded_tid);
    const std::vector<double> before = clean;
    EXPECT_FALSE(guard.inspect(guarded_tid, clean));
    EXPECT_EQ(clean, before);

    // An unguarded set passes through even when damaged: that is the
    // selective-protection trade-off, not a bug.
    ThreadId unguarded_tid = 0;
    bool found = false;
    for (const WeightSensitivity &s : guard.ranking()) {
        if (!guard.guarded(s.tid)) {
            unguarded_tid = s.tid;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    std::vector<double> damaged = *store.get(unguarded_tid);
    damaged[0] = -damaged[0];
    const std::vector<double> still = damaged;
    EXPECT_FALSE(guard.inspect(unguarded_tid, damaged));
    EXPECT_EQ(damaged, still);
}

} // namespace
} // namespace act
