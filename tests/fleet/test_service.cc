/**
 * @file
 * End-to-end tests of the fleet streaming service: the determinism
 * contract (shard-count invariance, streaming-vs-batch equivalence)
 * and the never-silent shed backpressure accounting.
 */

#include <gtest/gtest.h>

#include <string>

#include "fleet/service.hh"
#include "workloads/kernel.hh"
#include "workloads/workload.hh"

namespace act::fleet
{
namespace
{

FleetConfig
smallConfig()
{
    FleetConfig config;
    config.clients = 6;
    config.shards = 2;
    config.seed = 11;
    config.scale = 1;
    config.repeat = 2;
    config.block_events = 128;
    config.queue_blocks = 8;
    config.batch_max = 16;
    return config;
}

TEST(FleetService, FinalReportInvariantAcrossShardCounts)
{
    FleetConfig config = smallConfig();
    config.shards = 1;
    const std::string one =
        runFleetService(config).report.toText(config.top_k);

    config.shards = 4;
    const std::string four =
        runFleetService(config).report.toText(config.top_k);

    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("fleet diagnosis report"), std::string::npos);
}

TEST(FleetService, StreamingMatchesBatchReplayByteForByte)
{
    const FleetConfig config = smallConfig();
    const std::string streamed =
        runFleetService(config).report.toText(config.top_k);
    const std::string batch =
        replayFleetBatch(config).report.toText(config.top_k);
    EXPECT_EQ(streamed, batch);
}

TEST(FleetService, MemFrontEndIsAlsoShardInvariant)
{
    FleetConfig config = smallConfig();
    config.clients = 4;
    config.front = FrontEnd::kMem;

    config.shards = 3;
    const std::string streamed =
        runFleetService(config).report.toText(config.top_k);
    const std::string batch =
        replayFleetBatch(config).report.toText(config.top_k);
    EXPECT_EQ(streamed, batch);
}

TEST(FleetService, ReportCountsMatchTheOfferedLoad)
{
    const FleetConfig config = smallConfig();
    const FleetResult result = runFleetService(config);

    // Under kBlock nothing is dropped, so the ingested totals must
    // equal the recorded traces times the repeat count.
    registerAllWorkloads();
    std::uint64_t expected_events = 0;
    const auto names = predictionKernelNames();
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        WorkloadParams params;
        params.seed = config.seed + c;
        params.scale = config.scale;
        const auto workload = makeWorkload(names[c % names.size()]);
        expected_events +=
            workload->record(params).events().size() * config.repeat;
    }
    EXPECT_EQ(result.report.totals.events, expected_events);
    EXPECT_EQ(result.report.totals.events_dropped, 0u);
    EXPECT_EQ(result.report.totals.blocks_dropped, 0u);
    EXPECT_EQ(result.report.totals.clients, config.clients);
    EXPECT_GT(result.report.totals.dependences, 0u);
    EXPECT_GT(result.report.totals.predictions, 0u);
}

TEST(FleetService, ShedBackpressureCountsEveryDropExactly)
{
    // Capacity-1 queues and a single shard under many clients: heavy
    // shedding. The property: ingested + dropped == offered, exactly,
    // for both events and blocks — and the run terminates (no
    // deadlock between shedding producers and the consumer).
    FleetConfig config = smallConfig();
    config.clients = 8;
    config.shards = 1;
    config.repeat = 4;
    config.queue_blocks = 1;
    config.backpressure = Backpressure::kShed;
    const FleetResult result = runFleetService(config);

    registerAllWorkloads();
    std::uint64_t offered_events = 0;
    std::uint64_t offered_blocks = 0;
    const auto names = predictionKernelNames();
    for (std::uint32_t c = 0; c < config.clients; ++c) {
        WorkloadParams params;
        params.seed = config.seed + c;
        params.scale = config.scale;
        const auto workload = makeWorkload(names[c % names.size()]);
        const std::uint64_t events =
            workload->record(params).events().size();
        offered_events += events * config.repeat;
        offered_blocks += (events + config.block_events - 1) /
                          config.block_events * config.repeat;
    }
    const FleetTotals &totals = result.report.totals;
    EXPECT_EQ(totals.events + totals.events_dropped, offered_events);
    EXPECT_EQ(totals.blocks + totals.blocks_dropped, offered_blocks);
    EXPECT_GT(totals.events, 0u);
}

TEST(FleetService, LintingAcceptsWorkloadBlocks)
{
    FleetConfig config = smallConfig();
    config.clients = 3;
    config.lint_blocks = true;
    const FleetResult result = runFleetService(config);
    EXPECT_EQ(result.report.totals.lint_rejects, 0u);
    EXPECT_GT(result.report.totals.events, 0u);
}

TEST(FleetService, EpochReportsAreEmittedOnLongRuns)
{
    FleetConfig config = smallConfig();
    config.clients = 4;
    config.shards = 2;
    config.repeat = 0;
    config.duration_s = 0.4;
    config.epoch_s = 0.1;

    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    const FleetResult result = runFleetService(config, sink);
    std::fclose(sink);
    EXPECT_GE(result.epochs, 1u);
    EXPECT_GT(result.report.totals.events, 0u);
}

} // namespace
} // namespace act::fleet
