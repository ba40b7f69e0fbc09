/**
 * @file
 * Tests for the Input Generator Buffer and the Debug Buffer.
 */

#include <gtest/gtest.h>

#include "act/buffers.hh"

namespace act
{
namespace
{

RawDependence
dep(Pc s, Pc l)
{
    return RawDependence{s, l, false};
}

TEST(InputGeneratorBuffer, LastSequenceNeedsEnoughHistory)
{
    InputGeneratorBuffer buffer(50);
    buffer.push(dep(1, 2));
    buffer.push(dep(3, 4));
    EXPECT_FALSE(buffer.lastSequence(3).has_value());
    buffer.push(dep(5, 6));
    const auto seq = buffer.lastSequence(3);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(seq->deps[0], dep(1, 2));
    EXPECT_EQ(seq->deps[2], dep(5, 6));
}

TEST(InputGeneratorBuffer, SlidesOldestFirst)
{
    InputGeneratorBuffer buffer(50);
    for (Pc p = 0; p < 5; ++p)
        buffer.push(dep(p, p + 100));
    const auto seq = buffer.lastSequence(3);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(seq->deps[0], dep(2, 102));
    EXPECT_EQ(seq->deps[2], dep(4, 104));
}

TEST(InputGeneratorBuffer, DropsOldestAtCapacity)
{
    InputGeneratorBuffer buffer(3);
    for (Pc p = 0; p < 10; ++p)
        buffer.push(dep(p, p));
    EXPECT_EQ(buffer.size(), 3u);
    const auto seq = buffer.lastSequence(3);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(seq->deps[0], dep(7, 7));
}

TEST(InputGeneratorBuffer, ClearEmpties)
{
    InputGeneratorBuffer buffer(10);
    buffer.push(dep(1, 1));
    buffer.clear();
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_FALSE(buffer.lastSequence(1).has_value());
}

TEST(InputGeneratorBuffer, OverwriteAccountingUnderSaturation)
{
    InputGeneratorBuffer buffer(3);
    for (Pc p = 0; p < 3; ++p)
        EXPECT_FALSE(buffer.push(dep(p, p)));
    EXPECT_EQ(buffer.overwrites(), 0u);

    // Every saturated push reports the overwrite and bumps the counter
    // monotonically.
    std::uint64_t previous = 0;
    for (Pc p = 3; p < 10; ++p) {
        EXPECT_TRUE(buffer.push(dep(p, p)));
        EXPECT_GT(buffer.overwrites(), previous);
        previous = buffer.overwrites();
    }
    EXPECT_EQ(buffer.overwrites(), 7u);

    // clear() resets the lifetime counter too: a cleared buffer is
    // indistinguishable from a fresh one.
    buffer.clear();
    EXPECT_EQ(buffer.overwrites(), 0u);
    EXPECT_FALSE(buffer.push(dep(1, 1)));
}

/** Log the sequence (1 -> 2, @p last_store -> @p last_load). */
void
logPair(DebugBuffer &buffer, Pc last_store, Pc last_load, double output)
{
    DependenceSequence sequence;
    sequence.deps = {dep(1, 2), dep(last_store, last_load)};
    buffer.log(sequence, output, 0, 0);
}

TEST(DebugBuffer, LogsInOrder)
{
    DebugBuffer buffer(60);
    logPair(buffer, 10, 11, 0.3);
    logPair(buffer, 20, 21, 0.2);
    EXPECT_EQ(buffer.size(), 2u);
    EXPECT_EQ(buffer.entries().front().sequence.deps.back(), dep(10, 11));
    EXPECT_EQ(buffer.entries().back().sequence.deps.back(), dep(20, 21));
    EXPECT_EQ(buffer.totalLogged(), 2u);
}

TEST(DebugBuffer, RingDropsOldest)
{
    DebugBuffer buffer(3);
    for (Pc p = 0; p < 6; ++p)
        logPair(buffer, p, p + 1, 0.1);
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.totalLogged(), 6u);
    EXPECT_EQ(buffer.entries().front().sequence.deps.back(), dep(3, 4));
}

TEST(DebugBuffer, PositionOfCountsFromNewest)
{
    DebugBuffer buffer(60);
    logPair(buffer, 10, 11, 0.3);
    logPair(buffer, 20, 21, 0.2);
    logPair(buffer, 30, 31, 0.1);
    EXPECT_EQ(buffer.positionOf(dep(30, 31)), 0u);
    EXPECT_EQ(buffer.positionOf(dep(10, 11)), 2u);
    EXPECT_FALSE(buffer.positionOf(dep(99, 99)).has_value());
}

TEST(DebugBuffer, PositionOfFindsMostRecentOccurrence)
{
    DebugBuffer buffer(60);
    logPair(buffer, 10, 11, 0.3);
    logPair(buffer, 20, 21, 0.2);
    logPair(buffer, 10, 11, 0.1); // repeated root cause
    EXPECT_EQ(buffer.positionOf(dep(10, 11)), 0u);
}

TEST(DebugBuffer, ClearResetsTotalLogged)
{
    // clear() is a full reset: a cleared buffer must be
    // indistinguishable from a freshly constructed one, including the
    // lifetime totalLogged() counter that the diagnosis report uses to
    // compute the filter fraction.
    DebugBuffer buffer(3);
    for (Pc p = 0; p < 6; ++p)
        logPair(buffer, p, p + 1, 0.1);
    ASSERT_EQ(buffer.totalLogged(), 6u);

    buffer.clear();
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.totalLogged(), 0u);

    logPair(buffer, 10, 11, 0.2);
    EXPECT_EQ(buffer.totalLogged(), 1u);
}

TEST(DebugBuffer, SlotsTakeSequencesOfAnyLength)
{
    // Each log copies into its slot's existing storage, which must take
    // the new sequence's length whether it is longer or shorter than
    // the one it overwrites.
    DebugBuffer buffer(2);
    std::vector<DebugEntry> logged;
    for (const std::size_t length : {3u, 1u, 5u, 2u}) {
        DebugEntry e;
        for (std::size_t i = 0; i < length; ++i)
            e.sequence.deps.push_back(dep(10 * length + i, 100 + i));
        e.output = -static_cast<double>(length);
        e.when = 7 * length;
        e.tid = static_cast<ThreadId>(length);
        buffer.log(e.sequence, e.output, e.when, e.tid);
        logged.push_back(e);
    }
    const std::vector<DebugEntry> entries = buffer.entries();
    ASSERT_EQ(entries.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        const DebugEntry &want = logged[2 + k];
        EXPECT_EQ(entries[k].sequence, want.sequence) << k;
        EXPECT_EQ(entries[k].output, want.output) << k;
        EXPECT_EQ(entries[k].when, want.when) << k;
        EXPECT_EQ(entries[k].tid, want.tid) << k;
    }
    EXPECT_EQ(buffer.totalLogged(), 4u);
    EXPECT_EQ(buffer.overwrites(), 2u);
}

TEST(DebugBuffer, EvictionLosesRootCause)
{
    // The MySQL#1 scenario: enough later entries push the root cause
    // out of the default-sized buffer.
    DebugBuffer buffer(4);
    logPair(buffer, 10, 11, 0.3); // root cause
    for (Pc p = 100; p < 104; ++p)
        logPair(buffer, p, p + 1, 0.2);
    EXPECT_FALSE(buffer.positionOf(dep(10, 11)).has_value());
}

} // namespace
} // namespace act
