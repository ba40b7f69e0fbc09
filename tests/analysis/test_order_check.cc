/**
 * @file
 * Tests for the order-violation checker: mined communication
 * invariants and the untrained-writer rule.
 */

#include <gtest/gtest.h>

#include "analysis/order_check.hh"

namespace act
{
namespace
{

constexpr Addr kData = 0x2000;
constexpr Pc kGoodStore = 0x10;
constexpr Pc kBadStore = 0x30;
constexpr Pc kLoad = 0x20;

TraceEvent
makeEvent(EventKind kind, ThreadId tid, Pc pc, Addr addr)
{
    TraceEvent e;
    e.kind = kind;
    e.tid = tid;
    e.pc = pc;
    e.addr = addr;
    return e;
}

/** Inter-thread RAW: @p store_pc by t0, then @p load_pc by t1. */
Trace
rawTrace(Pc store_pc, Pc load_pc)
{
    Trace trace;
    trace.append(makeEvent(EventKind::kStore, 0, store_pc, kData));
    trace.append(makeEvent(EventKind::kLoad, 1, load_pc, kData));
    return trace;
}

TEST(OrderCheck, MinedInvariantAllowsTrainedWriters)
{
    OrderInvariants invariants;
    invariants.addPassingTrace(rawTrace(kGoodStore, kLoad));
    EXPECT_TRUE(invariants.allows(kGoodStore, kLoad));
    EXPECT_FALSE(invariants.allows(kBadStore, kLoad));
    EXPECT_TRUE(invariants.knowsLoad(kLoad));
    EXPECT_FALSE(invariants.knowsLoad(0x99));

    EXPECT_TRUE(checkOrderViolations(rawTrace(kGoodStore, kLoad),
                                     invariants)
                    .empty());
}

TEST(OrderCheck, UntrainedWriterIsAnOrderViolation)
{
    OrderInvariants invariants;
    invariants.addPassingTrace(rawTrace(kGoodStore, kLoad));

    const AnalysisReport report =
        checkOrderViolations(rawTrace(kBadStore, kLoad), invariants);
    ASSERT_EQ(report.size(), 1u);
    const AnalysisFinding &finding = report.findings()[0];
    EXPECT_EQ(finding.detector, DetectorKind::kOrder);
    EXPECT_EQ(finding.code, "untrained-writer");
    EXPECT_EQ(finding.pcs, (std::vector<Pc>{kBadStore, kLoad}));
    EXPECT_TRUE(report.matchesPair(DetectorKind::kOrder, kBadStore,
                                   kLoad));
}

TEST(OrderCheck, LoadNeverTrainedGetsItsOwnCode)
{
    OrderInvariants invariants;
    invariants.addPassingTrace(rawTrace(kGoodStore, kLoad));

    // A load PC the passing runs never saw communicate at all.
    const AnalysisReport report =
        checkOrderViolations(rawTrace(kBadStore, 0x44), invariants);
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report.findings()[0].code, "untrained-communication");
}

TEST(OrderCheck, IntraThreadDependencesNeverTripMinedMode)
{
    OrderInvariants invariants;
    invariants.addPassingTrace(rawTrace(kGoodStore, kLoad));

    Trace local;
    local.append(makeEvent(EventKind::kStore, 0, kBadStore, kData));
    local.append(makeEvent(EventKind::kLoad, 0, kLoad, kData));
    EXPECT_TRUE(checkOrderViolations(local, invariants).empty());
}

TEST(OrderCheck, SingleThreadedTraceIsAlwaysClean)
{
    Trace trace;
    for (int i = 0; i < 50; ++i) {
        trace.append(
            makeEvent(EventKind::kLoad, 0, 0x20 + (i % 3), kData + i));
        trace.append(
            makeEvent(EventKind::kStore, 0, 0x10 + (i % 3), kData + i));
    }
    OrderInvariants empty_invariants;
    EXPECT_TRUE(checkOrderViolations(trace, empty_invariants).empty());
}

} // namespace
} // namespace act
