/**
 * @file
 * Tests for weight protection: checksumming, in-place repair, and a
 * guard over every stored copy of a shared set.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "act/weight_guard.hh"
#include "act/weight_store.hh"

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

/** Flip stored bit @p bit of register @p reg. */
void
flipBit(std::vector<double> &weights, std::size_t reg, std::uint64_t bit)
{
    std::uint64_t raw = 0;
    std::memcpy(&raw, &weights[reg], sizeof(raw));
    raw ^= 1ULL << bit;
    std::memcpy(&weights[reg], &raw, sizeof(raw));
}

TEST(WeightChecksum, DetectsAnySingleBitFlip)
{
    std::vector<double> weights = rampWeights(16, 0.5);
    const std::uint64_t clean = weightChecksum(weights);
    EXPECT_EQ(weightChecksum(weights), clean); // Stable.

    for (const std::size_t reg : {0u, 7u, 15u}) {
        for (const std::uint64_t bit : {0u, 23u, 52u, 63u}) {
            std::vector<double> flipped = weights;
            flipBit(flipped, reg, bit);
            EXPECT_NE(weightChecksum(flipped), clean)
                << "reg " << reg << " bit " << bit;
        }
    }
}

TEST(WeightGuard, InspectRepairsAFlippedGuardedSet)
{
    const WeightStore store = makeStore(2);
    const WeightGuard guard = WeightGuard::build(store);

    const std::vector<double> clean = *store.get(0);
    std::vector<double> damaged = clean;
    flipBit(damaged, 3, 41); // An in-range (silent) perturbation.
    ASSERT_NE(damaged, clean);

    EXPECT_TRUE(guard.inspect(0, damaged));
    EXPECT_EQ(damaged, clean); // Shadow copy restored in place.
}

TEST(WeightGuard, InspectRestoresEveryCopyOfASharedSet)
{
    // Every thread loads the same trained set, as buildWeightStore
    // gives it without per-thread weights; each copy is guarded.
    WeightStore store(Topology{2, 6});
    const std::vector<double> shared = rampWeights(store.weightCount(), 0.2);
    store.setAll(4, shared);
    const WeightGuard guard = WeightGuard::build(store);

    for (ThreadId tid = 0; tid < 4; ++tid) {
        std::vector<double> damaged = shared;
        flipBit(damaged, tid, 40 + tid);
        EXPECT_TRUE(guard.inspect(tid, damaged)) << "tid " << tid;
        EXPECT_EQ(damaged, shared) << "tid " << tid;
    }
}

TEST(WeightGuard, InspectLeavesCleanAndUnguardedSetsAlone)
{
    WeightStore store = makeStore(4);
    const WeightGuard guard = WeightGuard::build(store);

    // A clean guarded set verifies and is untouched.
    std::vector<double> clean = *store.get(2);
    const std::vector<double> before = clean;
    EXPECT_FALSE(guard.inspect(2, clean));
    EXPECT_EQ(clean, before);

    // A set stored after the guard was built has no record to restore
    // from, so it passes through as it is.
    store.set(9, rampWeights(store.weightCount(), -0.3));
    std::vector<double> late = *store.get(9);
    const std::vector<double> still = late;
    EXPECT_FALSE(guard.inspect(9, late));
    EXPECT_EQ(late, still);
}

} // namespace
} // namespace act
