/**
 * @file
 * Tests for the analysis pipeline: determinism across decode paths,
 * ensemble scoring, report dedup and ranking, and agreement with the
 * bug catalog over every workload.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/pipeline.hh"
#include "trace/io.hh"
#include "workloads/bugs.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

constexpr Addr kData = 0x2000;

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

/**
 * A synthetic trace that trips every detector class at once:
 *  - an unlocked shared write (lockset),
 *  - an unserializable W-W-R triple (atomicity),
 *  - remote reads no passing run supplied (order, mined mode),
 * and carries happens-before races for the oracle lens.
 */
Trace
everyDetectorTrace()
{
    Trace trace;
    // Unlocked sharing + W-W-R triple on kData.
    trace.append(makeEvent(EventKind::kStore, 0, 0x10, kData));
    trace.append(makeEvent(EventKind::kLoad, 1, 0x20, kData));
    trace.append(makeEvent(EventKind::kStore, 0, 0x11, kData));
    trace.append(makeEvent(EventKind::kStore, 1, 0x21, kData));
    trace.append(makeEvent(EventKind::kStore, 0, 0x12, kData));
    trace.append(makeEvent(EventKind::kLoad, 0, 0x13, kData));
    return trace;
}

TEST(Pipeline, EveryDetectorClassFires)
{
    // Invariants mined from no passing run lack every remote pair of
    // the trace; without invariants the order checker does not run.
    const MinedBaselines baselines;
    const PipelineResult result =
        runAnalysisPipeline(everyDetectorTrace(), &baselines);
    EXPECT_EQ(runAnalysisPipeline(everyDetectorTrace())
                  .report.countFor(DetectorKind::kOrder),
              0u);
    EXPECT_GT(result.report.countFor(DetectorKind::kLockset), 0u);
    EXPECT_GT(result.report.countFor(DetectorKind::kAtomicity), 0u);
    EXPECT_GT(result.report.countFor(DetectorKind::kOrder), 0u);
    EXPECT_FALSE(result.races.empty());
    EXPECT_GT(result.report.events_analyzed, 0u);
    // Every finding carries a dynamic witness.
    for (const AnalysisFinding &finding : result.report.findings())
        EXPECT_FALSE(finding.witness_seqs.empty()) << finding.code;
}

TEST(Pipeline, TextIsByteIdenticalAcrossDecodePaths)
{
    // A workload recording (per-event append) and its disk round-trip
    // (block decode via appendBlock) must analyse identically.
    registerAllWorkloads();
    const auto workload = makeWorkload("pbzip2");
    WorkloadParams params;
    params.seed = 999;
    params.trigger_failure = true;
    const Trace recorded = workload->record(params);

    const std::string path = ::testing::TempDir() + "pipeline_rt.trc";
    ASSERT_TRUE(writeTrace(recorded, path));
    Trace decoded;
    ASSERT_TRUE(readTrace(path, decoded));
    std::remove(path.c_str());

    EXPECT_EQ(runAnalysisPipeline(recorded).toText(),
              runAnalysisPipeline(decoded).toText());
}

TEST(Pipeline, RankedOrdersByCountThenIdentity)
{
    AnalysisReport report;
    AnalysisFinding rare;
    rare.detector = DetectorKind::kLockset;
    rare.code = "unlocked-shared-write";
    rare.pcs = {0x10, 0x20};
    rare.count = 1;
    AnalysisFinding frequent = rare;
    frequent.pcs = {0x30, 0x40};
    frequent.count = 9;
    report.add(rare);
    report.add(frequent);
    const auto ranked = report.ranked();
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].pcs, (std::vector<Pc>{0x30, 0x40}));

    // Re-adding a finding with the same key folds counts.
    report.add(rare);
    EXPECT_EQ(report.size(), 2u);
    EXPECT_EQ(report.ranked()[1].count, 2u);
}

TEST(Pipeline, EnsembleScoresEveryLens)
{
    const PipelineResult result =
        runAnalysisPipeline(everyDetectorTrace());

    RawDependence hit; // The W->R pair several lenses corroborate.
    hit.store_pc = 0x10;
    hit.load_pc = 0x20;
    hit.inter_thread = true;
    RawDependence miss;
    miss.store_pc = 0x70;
    miss.load_pc = 0x71;
    miss.inter_thread = true;
    RawDependence local = hit;
    local.inter_thread = false;

    const EnsembleScore score =
        scoreEnsemble(result, {hit, miss, local, hit});
    ASSERT_EQ(score.per_detector.count("lockset"), 1u);
    ASSERT_EQ(score.per_detector.count("hb"), 1u);
    // Duplicates and intra-thread predictions dropped everywhere.
    EXPECT_EQ(score.fused.considered, 2u);
    EXPECT_EQ(score.per_detector.at("lockset").considered, 2u);
    // The hit pair is inside the W-R-W atomicity triple (0x10, 0x20,
    // 0x11) and is an HB race; fused credits it once.
    EXPECT_EQ(score.per_detector.at("atomicity").true_positives, 1u);
    EXPECT_EQ(score.per_detector.at("hb").true_positives, 1u);
    EXPECT_EQ(score.fused.true_positives, 1u);
    EXPECT_EQ(score.fused.false_positives, 1u);
    EXPECT_DOUBLE_EQ(score.fused.precision(), 0.5);
}

TEST(Pipeline, EnsembleEmptyPredictionsAreVacuouslyPrecise)
{
    const PipelineResult result =
        runAnalysisPipeline(everyDetectorTrace());
    const EnsembleScore score = scoreEnsemble(result, {});
    EXPECT_EQ(score.fused.considered, 0u);
    EXPECT_DOUBLE_EQ(score.fused.precision(), 1.0);
    EXPECT_GT(score.fused.false_negatives, 0u);
    EXPECT_LT(score.fused.recall(), 1.0);
}

/**
 * Catalog agreement over the full workload registry, with baselines
 * mined from passing runs exactly as `actlint analyze` does: the bug's
 * own detector class flags the root dependence of every concurrent
 * bug, and sequential bugs produce no findings at all.
 */
TEST(Pipeline, AgreesWithBugCatalogUnderMinedBaselines)
{
    registerAllWorkloads();
    for (const std::string &name : realBugNames()) {
        const auto workload = makeWorkload(name);

        MinedBaselines baselines;
        for (std::uint64_t seed = 100; seed < 110; ++seed) {
            WorkloadParams params;
            params.seed = seed;
            baselines.addPassingTrace(workload->record(params));
        }

        WorkloadParams failing;
        failing.seed = 999;
        failing.trigger_failure = true;
        const PipelineResult result =
            runAnalysisPipeline(workload->record(failing), &baselines);

        const RawDependence root = workload->buggyDependence();
        switch (workload->bugClass()) {
        case BugClass::kAtomicityViolation:
            EXPECT_TRUE(result.report.matchesPair(
                DetectorKind::kAtomicity, root.store_pc, root.load_pc))
                << name << ": atomicity detector must flag the root";
            break;
        case BugClass::kOrderViolation:
            EXPECT_TRUE(result.report.matchesPair(
                DetectorKind::kOrder, root.store_pc, root.load_pc))
                << name << ": order detector must flag the root";
            break;
        default:
            EXPECT_TRUE(result.report.empty())
                << name << ": sequential bug must stay clean";
            break;
        }
        if (workload->concurrent()) {
            EXPECT_TRUE(result.report.matchesPairAny(root.store_pc,
                                                     root.load_pc))
                << name << ": no detector flags the root";
        }
    }
}

} // namespace
} // namespace act
