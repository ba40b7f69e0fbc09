/**
 * @file
 * Integration tests for the end-to-end diagnosis pipeline (Figure 1).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "diagnosis/pipeline.hh"

namespace act
{
namespace
{

class PipelineFixture : public ::testing::Test
{
  protected:
    void SetUp() override { registerAllWorkloads(); }
};

TEST_F(PipelineFixture, OfflineTrainingReachesLowError)
{
    const auto workload = makeWorkload("lu");
    PairEncoder encoder;
    OfflineTrainingConfig config;
    config.traces = 4;
    config.max_examples = 20000;
    const TrainedModel model = offlineTrain(*workload, encoder, config);
    EXPECT_GT(model.dependence_count, 1000u);
    EXPECT_GT(model.example_count, 1000u);
    EXPECT_LT(model.training.final_error, 0.05);
    EXPECT_EQ(model.topology.inputs, 3u * encoder.width());
    EXPECT_EQ(model.weights.size(),
              model.topology.hidden * (model.topology.inputs + 1) +
                  model.topology.hidden + 1);
}

TEST_F(PipelineFixture, CacheSequencesMirrorOnlineFormation)
{
    const auto workload = makeWorkload("fft");
    WorkloadParams params;
    const Trace trace = workload->record(params);
    const auto sequences =
        collectCacheSequences(trace, MemSystemConfig{}, 3);
    EXPECT_FALSE(sequences.empty());
    for (const auto &seq : sequences)
        EXPECT_EQ(seq.deps.size(), 3u);
    // Cache-based formation loses some dependences (evictions, clean
    // transfers), so it can never see more sequences than exist loads.
    EXPECT_LE(sequences.size(), trace.loadCount());
}

TEST_F(PipelineFixture, DiagnosesGzipSemanticBug)
{
    const auto workload = makeWorkload("gzip");
    DiagnosisSetup setup = defaultDiagnosisSetup();
    setup.training.traces = 8;
    setup.postmortem_traces = 10;
    const DiagnosisResult result = diagnoseFailure(*workload, setup);
    EXPECT_TRUE(result.root_logged);
    ASSERT_TRUE(result.rank.has_value());
    EXPECT_LE(*result.rank, 5u);
}

TEST_F(PipelineFixture, DiagnosesMysql2ConcurrencyBug)
{
    const auto workload = makeWorkload("mysql2");
    DiagnosisSetup setup = defaultDiagnosisSetup();
    setup.training.traces = 8;
    setup.postmortem_traces = 10;
    const DiagnosisResult result = diagnoseFailure(*workload, setup);
    EXPECT_TRUE(result.root_logged);
    ASSERT_TRUE(result.debug_position.has_value());
    EXPECT_LT(*result.debug_position, 60u);
    ASSERT_TRUE(result.rank.has_value());
    EXPECT_LE(*result.rank, 8u);
}

TEST_F(PipelineFixture, DiagnosisNeverReproducesTheFailure)
{
    // Structural property: the pipeline runs the failing execution
    // exactly once; pruning uses correct executions only. We verify
    // via the run statistics: a single failing run's dependences.
    const auto workload = makeWorkload("seq");
    DiagnosisSetup setup = defaultDiagnosisSetup();
    setup.training.traces = 6;
    setup.postmortem_traces = 8;
    const DiagnosisResult result = diagnoseFailure(*workload, setup);
    WorkloadParams failing;
    failing.seed = setup.failure_seed;
    failing.trigger_failure = true;
    const Trace failure_trace = workload->record(failing);
    EXPECT_LE(result.run_stats.act.dependences,
              failure_trace.loadCount());
}

TEST_F(PipelineFixture, ProtectionRepairsEveryThreadsCopyOfTheSharedSet)
{
    // table-adaptivity's knobs, with protection on.
    const auto workload = makeWorkload("pbzip2");
    DiagnosisSetup setup = defaultDiagnosisSetup();
    setup.training.traces = 3;
    setup.training.trainer.max_epochs = 60;
    setup.training.max_examples = 6000;
    setup.postmortem_traces = 4;
    setup.protect_weights = true;
    const DiagnosisResult clean = diagnoseFailure(*workload, setup);

    setup.weight_store_hook = [](WeightStore &store) {
        for (const ThreadId tid : store.tids()) {
            std::vector<double> weights = *store.get(tid);
            weights[0] = std::numeric_limits<double>::quiet_NaN();
            store.set(tid, std::move(weights));
        }
    };
    const DiagnosisResult hooked = diagnoseFailure(*workload, setup);

    EXPECT_EQ(hooked.run_stats.act.repaired_weight_sets, 3u);
    EXPECT_EQ(hooked.run_stats.act.quarantined_weight_sets, 0u);
    ASSERT_TRUE(clean.rank.has_value());
    EXPECT_EQ(hooked.rank, clean.rank);
    EXPECT_EQ(hooked.report.toString(SIZE_MAX),
              clean.report.toString(SIZE_MAX));
}

TEST_F(PipelineFixture, PerThreadWeightSpecialisation)
{
    const auto workload = makeWorkload("fft");
    PairEncoder encoder;
    OfflineTrainingConfig config;
    config.traces = 3;
    config.max_examples = 12000;
    config.trainer.max_epochs = 120;
    config.per_thread_weights = true;
    const TrainedModel model = offlineTrain(*workload, encoder, config);

    // Every thread that executed loads received a specialised set.
    EXPECT_EQ(model.per_thread.size(), workload->threadCount());
    for (const auto &[tid, weights] : model.per_thread) {
        EXPECT_EQ(weights.size(), model.weights.size()) << tid;
        // Fine-tuning moved at least something off the base weights.
        EXPECT_NE(weights, model.weights) << tid;
    }

    const WeightStore store =
        buildWeightStore(model, workload->threadCount());
    for (ThreadId tid = 0; tid < workload->threadCount(); ++tid)
        EXPECT_TRUE(store.has(tid));
}

TEST_F(PipelineFixture, BuildWeightStoreFallsBackToBase)
{
    TrainedModel model;
    model.topology = Topology{6, 10};
    model.weights.assign(WeightStore(model.topology).weightCount(), 0.25);
    model.per_thread[1] = std::vector<double>(model.weights.size(), -0.5);
    const WeightStore store = buildWeightStore(model, 3);
    EXPECT_EQ(store.get(0), model.weights);
    EXPECT_EQ(store.get(1), model.per_thread[1]);
    EXPECT_EQ(store.get(2), model.weights);
}

TEST_F(PipelineFixture, DefaultSetupMatchesTableIII)
{
    const DiagnosisSetup setup = defaultDiagnosisSetup();
    EXPECT_EQ(setup.system.mem.cores, 8u);
    EXPECT_EQ(setup.system.mem.line_bytes, 64u);
    EXPECT_EQ(setup.system.act.input_buffer_entries, 50u);
    EXPECT_EQ(setup.system.act.debug_buffer_entries, 60u);
    EXPECT_DOUBLE_EQ(setup.system.act.misprediction_threshold, 0.05);
    EXPECT_EQ(setup.system.act.hw.neuron.max_inputs, 10u);
    EXPECT_EQ(setup.postmortem_traces, 20u);
}

} // namespace
} // namespace act
