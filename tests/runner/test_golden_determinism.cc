/**
 * @file
 * Golden determinism for the paper's smoke campaign.
 *
 * The perf work in the simulate→track→infer pipeline (arena writer
 * tables, ring buffers, flat weight registers, block trace decode) is
 * only admissible if it is invisible in the science: the smoke campaign
 * — the miniature of the fig7a/table4/table5 experiments — must emit a
 * byte-identical JSON report run over run, at any parallelism, and
 * across optimisations (a pinned hash of the report). The
 * campaign-level check subsumes every layer at once; a single flipped
 * bit anywhere in the pipeline shows up as a report diff here.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "runner/campaign.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "telemetry/json.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

class RegisterWorkloads : public ::testing::Environment
{
  public:
    void SetUp() override { registerAllWorkloads(); }
};

const auto *const kRegistered =
    ::testing::AddGlobalTestEnvironment(new RegisterWorkloads);

std::string
runSmoke(unsigned jobs)
{
    const Campaign campaign = makeCampaign("smoke");
    RunOptions options;
    options.jobs = jobs;
    const CampaignRunResult run = runCampaign(campaign, options);
    EXPECT_EQ(run.results.size(), campaign.jobs.size());
    return reportJson(campaign, run.results);
}

TEST(GoldenDeterminism, SmokeCampaignByteIdenticalAcrossRunsAndJobs)
{
    const std::string serial_a = runSmoke(1);
    const std::string serial_b = runSmoke(1);
    // Run-over-run: nothing in the pipeline may depend on iteration
    // order of freshly allocated containers, pointer values, or time.
    ASSERT_EQ(serial_a, serial_b);

    // Parallelism: job scheduling must not leak into results.
    const std::string wide = runSmoke(4);
    ASSERT_EQ(serial_a, wide);

    // Across changes: the report is pinned byte for byte. Any change
    // that moves a number must say so and update the constant.
    std::uint64_t fnv1a = 0xcbf29ce484222325ULL;
    for (const char c : serial_a) {
        fnv1a ^= static_cast<unsigned char>(c);
        fnv1a *= 0x100000001b3ULL;
    }
    EXPECT_EQ(fnv1a, 0x613034427bf9bf48ULL);

    // The report must be substantial enough to actually pin the
    // pipeline — a trivially empty report would pass the equalities.
    EXPECT_GT(serial_a.size(), 1000u);
    EXPECT_NE(serial_a.find("\"campaign\": \"smoke\""), std::string::npos);

    // And it must be JSON the repo's one reader accepts, which is the
    // check `actlint report` applies to every campaign directory.
    std::string error;
    const auto root = telemetry::parseJson(serial_a, &error);
    ASSERT_NE(root, nullptr) << error;
    EXPECT_TRUE(root->isObject());
}

} // namespace
} // namespace act
