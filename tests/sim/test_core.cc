/**
 * @file
 * Tests for the per-core timing model.
 */

#include <gtest/gtest.h>

#include "sim/core.hh"

namespace act
{
namespace
{

TEST(Core, IssueWidthLimitsPlainInstructions)
{
    Core core(CoreConfig{});
    core.advanceInstructions(10); // 2-issue: 5 cycles
    EXPECT_EQ(core.cycle(), 5u);
    core.advanceInstructions(3); // ceil(3/2) = 2
    EXPECT_EQ(core.cycle(), 7u);
    EXPECT_EQ(core.stats().instructions, 13u);
}

TEST(Core, WiderIssue)
{
    CoreConfig config;
    config.issue_width = 4;
    Core core(config);
    core.advanceInstructions(10);
    EXPECT_EQ(core.cycle(), 3u); // ceil(10/4)
}

TEST(CoreDeathTest, NonPowerOfTwoIssueWidthAborts)
{
    // The issue width divides by shifting, so it must be a power of
    // two.
    for (const std::uint32_t width : {0u, 3u, 6u}) {
        CoreConfig config;
        config.issue_width = width;
        EXPECT_DEATH({ Core core(config); }, "assertion failed") << width;
    }
}

TEST(Core, LoadExposesLatencyMinusOne)
{
    Core core(CoreConfig{});
    core.completeLoad(2); // L1 hit
    EXPECT_EQ(core.cycle(), 1u);
    core.completeLoad(312); // memory
    EXPECT_EQ(core.cycle(), 1u + 311u);
    EXPECT_EQ(core.stats().loads, 2u);
}

TEST(Core, StoreTakesOneSlot)
{
    Core core(CoreConfig{});
    core.completeStore();
    core.completeStore();
    EXPECT_EQ(core.cycle(), 2u);
    EXPECT_EQ(core.stats().stores, 2u);
}

TEST(Core, ActStallAccounted)
{
    Core core(CoreConfig{});
    core.actStall(25);
    EXPECT_EQ(core.cycle(), 25u);
    EXPECT_EQ(core.stats().act_stall_cycles, 25u);
}

TEST(Core, ContextSwitchFlushCost)
{
    CoreConfig config;
    config.context_switch_flush = 60;
    Core core(config);
    core.contextSwitch();
    EXPECT_EQ(core.cycle(), 60u);
}

TEST(Core, SyncToOnlyMovesForward)
{
    Core core(CoreConfig{});
    core.syncTo(100);
    EXPECT_EQ(core.cycle(), 100u);
    core.syncTo(50);
    EXPECT_EQ(core.cycle(), 100u);
}

} // namespace
} // namespace act
