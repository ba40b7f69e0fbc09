/**
 * @file
 * Tests for the fault-injection subsystem: deterministic replay,
 * zero-plan dormancy, per-site corruption semantics and the audit log.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "act/weight_store.hh"
#include "faults/fault_injector.hh"
#include "trace/trace.hh"

namespace act
{
namespace
{

/** A synthetic trace large enough for rate-based sites to fire. */
Trace
makeTrace(std::size_t events = 2000)
{
    Trace trace;
    for (std::size_t i = 0; i < events; ++i) {
        TraceEvent event;
        event.kind = (i % 3 == 0) ? EventKind::kStore : EventKind::kLoad;
        event.tid = 0;
        event.pc = 0x400000 + (i % 64) * 4;
        event.addr = 0x10000 + (i % 256) * 8;
        event.gap = 2;
        trace.append(event);
    }
    return trace;
}

bool
tracesEqual(const Trace &a, const Trace &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TraceEvent &x = a.events()[i];
        const TraceEvent &y = b.events()[i];
        if (x.kind != y.kind || x.tid != y.tid || x.pc != y.pc ||
            x.addr != y.addr || x.size != y.size || x.gap != y.gap)
            return false;
    }
    return true;
}

WeightStore
makeStore(std::uint32_t threads = 2)
{
    WeightStore store(Topology{2, 6});
    std::vector<double> weights(store.weightCount());
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.25 + 0.01 * static_cast<double>(i);
    store.setAll(threads, weights);
    return store;
}

TEST(FaultInjector, ZeroPlanIsIdentity)
{
    FaultPlan plan; // all rates 0
    ASSERT_FALSE(plan.enabled());
    FaultInjector inject(plan);

    Trace trace = makeTrace(500);
    const Trace original = trace;
    EXPECT_EQ(inject.corruptTrace(trace, 1), 0u);
    EXPECT_TRUE(tracesEqual(original, trace));

    WeightStore store = makeStore();
    const auto before = store.get(0);
    EXPECT_EQ(inject.corruptWeightStore(store, 0), 0u);
    EXPECT_EQ(store.get(0), before);

    EXPECT_EQ(inject.onWriterTransfer(), WriterFaultAction::kNone);
    EXPECT_FALSE(inject.dropInputDependence());
    EXPECT_FALSE(inject.dropDebugLog());
    EXPECT_EQ(inject.totalInjections(), 0u);
    EXPECT_TRUE(inject.log().empty());
    EXPECT_EQ(inject.formatLog(), "no injections");
}

TEST(FaultInjector, SamePlanSameStreamReplaysIdentically)
{
    const FaultPlan plan = FaultPlan::uniform(0.05, 42);
    FaultInjector a(plan);
    FaultInjector b(plan);

    Trace trace_a = makeTrace();
    Trace trace_b = makeTrace();
    const std::size_t injected_a = a.corruptTrace(trace_a, 7);
    const std::size_t injected_b = b.corruptTrace(trace_b, 7);

    EXPECT_GT(injected_a, 0u);
    EXPECT_EQ(injected_a, injected_b);
    EXPECT_TRUE(tracesEqual(trace_a, trace_b));
    ASSERT_EQ(a.log().size(), b.log().size());
    for (std::size_t i = 0; i < a.log().size(); ++i) {
        EXPECT_EQ(a.log()[i].site, b.log()[i].site);
        EXPECT_EQ(a.log()[i].index, b.log()[i].index);
        EXPECT_EQ(a.log()[i].detail, b.log()[i].detail);
    }

    // The online hooks replay too: fresh injectors fire at the same
    // occurrence indices.
    std::vector<bool> drops_a;
    std::vector<bool> drops_b;
    for (int i = 0; i < 500; ++i) {
        drops_a.push_back(a.dropInputDependence());
        drops_b.push_back(b.dropInputDependence());
    }
    EXPECT_EQ(drops_a, drops_b);
}

TEST(FaultInjector, DistinctStreamsCorruptIndependently)
{
    const FaultPlan plan = FaultPlan::uniform(0.05, 42);
    FaultInjector inject(plan);
    Trace first = makeTrace();
    Trace second = makeTrace();
    inject.corruptTrace(first, 1);
    inject.corruptTrace(second, 2);
    // Same plan, different artefacts: the damage patterns must not be
    // copies of each other.
    EXPECT_FALSE(tracesEqual(first, second));
}

TEST(FaultInjector, CertainDropEmptiesTheTrace)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.trace_drop_rate = 1.0;
    FaultInjector inject(plan);
    Trace trace = makeTrace(100);
    EXPECT_EQ(inject.corruptTrace(trace, 0), 100u);
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(inject.injectionCount(FaultSite::kTraceDrop), 100u);
}

TEST(FaultInjector, CertainDupDoublesTheTrace)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.trace_dup_rate = 1.0;
    FaultInjector inject(plan);
    Trace trace = makeTrace(100);
    inject.corruptTrace(trace, 0);
    EXPECT_EQ(trace.size(), 200u);
    EXPECT_EQ(inject.injectionCount(FaultSite::kTraceDup), 100u);
    // Duplicates sit adjacent to their originals.
    EXPECT_EQ(trace.events()[0].pc, trace.events()[1].pc);
    EXPECT_EQ(trace.events()[0].addr, trace.events()[1].addr);
}

TEST(FaultInjector, TruncationKeepsTheHead)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.trace_truncate_fraction = 0.5;
    FaultInjector inject(plan);
    Trace trace = makeTrace(100);
    const Trace original = makeTrace(100);
    inject.corruptTrace(trace, 0);
    ASSERT_EQ(trace.size(), 50u);
    EXPECT_EQ(inject.injectionCount(FaultSite::kTraceTruncate), 1u);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace.events()[i].pc, original.events()[i].pc);
}

TEST(FaultInjector, BitflipChangesOnlyPcOrAddr)
{
    FaultPlan plan;
    plan.seed = 11;
    plan.trace_bitflip_rate = 1.0;
    FaultInjector inject(plan);
    Trace trace = makeTrace(64);
    const Trace original = makeTrace(64);
    inject.corruptTrace(trace, 0);
    ASSERT_EQ(trace.size(), original.size());
    EXPECT_EQ(inject.injectionCount(FaultSite::kTraceBitflip), 64u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent &was = original.events()[i];
        const TraceEvent &now = trace.events()[i];
        // Exactly one bit across (pc, addr) differs; nothing else does.
        const std::uint64_t delta =
            (was.pc ^ now.pc) | (was.addr ^ now.addr);
        EXPECT_EQ(__builtin_popcountll(delta), 1);
        EXPECT_EQ(was.kind, now.kind);
        EXPECT_EQ(was.gap, now.gap);
    }
}

TEST(FaultInjector, WeightBitflipsPerturbTheStore)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.weight_bitflip_rate = 1.0;
    FaultInjector inject(plan);
    WeightStore store = makeStore(2);
    const auto before0 = store.get(0);
    const auto before1 = store.get(1);

    const std::size_t injected = inject.corruptWeightStore(store, 0);
    EXPECT_EQ(injected, store.weightCount() * 2);
    ASSERT_TRUE(store.get(0).has_value());
    EXPECT_NE(store.get(0), before0);
    EXPECT_NE(store.get(1), before1);

    // Threads are damaged independently: identical inputs, different
    // corrupted outputs.
    EXPECT_NE(store.get(0), store.get(1));
}

TEST(FaultInjector, PerBitRateDamagesEveryStoredBitIndependently)
{
    FaultPlan plan;
    plan.seed = 5;
    plan.weight_bit_rate = 1.0; // Every stored bit flips.
    ASSERT_TRUE(plan.enabled());
    FaultInjector inject(plan);
    WeightStore store = makeStore(1);
    const std::vector<double> before = *store.get(0);

    const std::size_t injected = inject.corruptWeightStore(store, 0);
    EXPECT_EQ(injected, store.weightCount() * 64);
    const std::vector<double> after = *store.get(0);
    for (std::size_t i = 0; i < before.size(); ++i) {
        std::uint64_t was = 0, now = 0;
        std::memcpy(&was, &before[i], sizeof(was));
        std::memcpy(&now, &after[i], sizeof(now));
        EXPECT_EQ(was ^ now, ~std::uint64_t{0}) << "register " << i;
    }

    // At a fractional rate the damage is a pure function of the plan
    // and the stream: a fresh injector over a fresh store replays it.
    plan.weight_bit_rate = 0.05;
    WeightStore first = makeStore(1);
    WeightStore again = makeStore(1);
    FaultInjector(plan).corruptWeightStore(first, 3);
    FaultInjector(plan).corruptWeightStore(again, 3);
    EXPECT_NE(first.get(0), makeStore(1).get(0));
    EXPECT_EQ(first.get(0), again.get(0));
}

TEST(FaultInjector, WeightsOnlyPlanUsesThePerBitModel)
{
    const FaultPlan plan = FaultPlan::weightsOnly(0.01, 7);
    EXPECT_EQ(plan.weight_bit_rate, 0.01);
    EXPECT_EQ(plan.weight_bitflip_rate, 0.0);
    EXPECT_EQ(plan.trace_bitflip_rate, 0.0);
    EXPECT_EQ(plan.input_drop_rate, 0.0);
    EXPECT_TRUE(plan.enabled());

    // And the historical uniform plan never turns it on, so the
    // table-resilience corruption streams stay bit-identical.
    EXPECT_EQ(FaultPlan::uniform(0.05, 42).weight_bit_rate, 0.0);
}

TEST(FaultInjector, HooksFireAtRateOne)
{
    FaultPlan plan;
    plan.seed = 9;
    plan.input_drop_rate = 1.0;
    plan.debug_drop_rate = 1.0;
    plan.writer_drop_rate = 1.0;
    FaultInjector inject(plan);
    EXPECT_TRUE(inject.dropInputDependence());
    EXPECT_TRUE(inject.dropDebugLog());
    EXPECT_EQ(inject.onWriterTransfer(), WriterFaultAction::kDrop);

    FaultPlan stale;
    stale.seed = 9;
    stale.writer_stale_rate = 1.0;
    FaultInjector inject_stale(stale);
    EXPECT_EQ(inject_stale.onWriterTransfer(), WriterFaultAction::kStale);
}

TEST(FaultInjector, FormatLogSummarisesPerSiteCounts)
{
    FaultPlan plan;
    plan.seed = 3;
    plan.trace_drop_rate = 1.0;
    FaultInjector inject(plan);
    Trace trace = makeTrace(10);
    inject.corruptTrace(trace, 4);

    const std::string text = inject.formatLog(2);
    EXPECT_NE(text.find("trace-drop: 10"), std::string::npos);
    EXPECT_NE(text.find("stream=4"), std::string::npos);
    EXPECT_NE(text.find("... 8 more"), std::string::npos);
}

} // namespace
} // namespace act
