/**
 * @file
 * Oracle-agreement regression over the pinned 32-variant CI slice:
 * for every variant, the correct execution is clean under all four
 * lenses (no detector findings, no happens-before races), and the
 * failing execution is flagged by exactly the lens the bug class was
 * engineered for — the detector finding (or HB race) covers the
 * catalogued root PC pair. This mirrors the 0-disagreement gate the
 * ensemble campaign holds for the hand-written bugs: if a detector or
 * the harness drifts, a variant's catalog stops matching and this
 * test names the variant and the lens.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/pipeline.hh"
#include "corpus/corpus.hh"

namespace act::corpus
{
namespace
{

/** Mirror the runner's corpus-cell recipe: 4 training traces. */
MinedBaselines
mineBaselines(const CorpusWorkload &workload)
{
    MinedBaselines baselines;
    for (std::uint64_t seed = 100; seed < 104; ++seed) {
        WorkloadParams params;
        params.seed = seed;
        baselines.addPassingTrace(workload.record(params));
    }
    return baselines;
}

TEST(CorpusAgreement, PinnedSliceMatchesItsCatalogs)
{
    const auto slice = corpusSlice(kCorpusMasterSeed, 32);
    ASSERT_EQ(32u, slice.size());
    for (const CorpusVariantDesc &desc : slice) {
        const std::string name = corpusName(desc);
        SCOPED_TRACE(name);
        const auto workload = makeCorpusWorkload(name);
        ASSERT_NE(nullptr, workload);
        const CorpusCatalog &catalog = workload->catalog();
        const MinedBaselines baselines = mineBaselines(*workload);

        // Correct execution: every lens silent. A held-out seed (not
        // among the mined baselines) keeps this an honest check.
        {
            WorkloadParams params;
            params.seed = 314;
            const PipelineResult clean =
                runAnalysisPipeline(workload->record(params), &baselines);
            EXPECT_TRUE(clean.races.empty());
            EXPECT_TRUE(clean.report.empty()) << clean.report.toText();
        }

        // Failing execution: the engineered lens covers the root.
        WorkloadParams params;
        params.seed = 999;
        params.trigger_failure = true;
        const PipelineResult analysis =
            runAnalysisPipeline(workload->record(params), &baselines);

        const Pc store = catalog.root_store_pc;
        const Pc load = catalog.root_load_pc;
        if (catalog.lens == "hb") {
            EXPECT_TRUE(analysis.races.isRacyPair(store, load))
                << "hb lens missed the root";
        } else if (catalog.lens == "lockset") {
            EXPECT_TRUE(analysis.report.matchesPair(
                DetectorKind::kLockset, store, load))
                << analysis.report.toText();
        } else if (catalog.lens == "atomicity") {
            EXPECT_TRUE(analysis.report.matchesPair(
                DetectorKind::kAtomicity, store, load))
                << analysis.report.toText();
        } else if (catalog.lens == "order") {
            EXPECT_TRUE(analysis.report.matchesPair(
                DetectorKind::kOrder, store, load))
                << analysis.report.toText();
        } else {
            FAIL() << "unknown lens " << catalog.lens;
        }
    }
}

TEST(CorpusAgreement, FailingRunsDifferFromCorrectRuns)
{
    // The injected perturbation must actually change the interleaving:
    // a failing trace is not byte-identical to the correct trace of
    // the same seed.
    for (std::size_t c = 0; c < kCorpusBugClassCount; ++c) {
        CorpusVariantDesc desc;
        desc.base = "radix";
        desc.bug_class = static_cast<CorpusBugClass>(c);
        desc.seed = 9;
        const auto workload = makeCorpusWorkload(corpusName(desc));
        ASSERT_NE(nullptr, workload);
        WorkloadParams params;
        params.seed = 999;
        const Trace correct = workload->record(params);
        params.trigger_failure = true;
        const Trace failing = workload->record(params);
        bool differs = correct.events().size() != failing.events().size();
        for (std::size_t i = 0;
             !differs && i < correct.events().size(); ++i) {
            const TraceEvent &x = correct.events()[i];
            const TraceEvent &y = failing.events()[i];
            differs = x.tid != y.tid || x.kind != y.kind ||
                      x.pc != y.pc || x.addr != y.addr;
        }
        EXPECT_TRUE(differs) << corpusName(desc);
    }
}

} // namespace
} // namespace act::corpus
