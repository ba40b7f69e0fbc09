/**
 * @file
 * Tests for campaign construction, the determinism guarantee (same
 * seeds => byte-identical JSON report regardless of --jobs) and the
 * report serialisers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "runner/campaign.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "telemetry/json.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

using telemetry::formatDouble;

class RegisterWorkloads : public ::testing::Environment
{
  public:
    void SetUp() override { registerAllWorkloads(); }
};

const auto *const kRegistered =
    ::testing::AddGlobalTestEnvironment(new RegisterWorkloads);

/** A tiny campaign that exercises several job kinds but runs fast. */
Campaign
tinyCampaign()
{
    Campaign campaign;
    campaign.name = "tiny";
    campaign.description = "unit-test campaign";

    JobKnobs prediction;
    prediction.train_traces = 2;
    prediction.test_traces = 2;
    prediction.max_epochs = 30;
    prediction.max_examples = 2000;

    std::uint32_t id = 0;
    for (const char *kernel : {"lu", "fft", "canneal", "mcf"}) {
        JobSpec spec;
        spec.id = id++;
        spec.kind = JobKind::kPrediction;
        spec.scheme = Scheme::kAct;
        spec.workload = kernel;
        spec.seed = 0xbe4c;
        spec.knobs = prediction;
        campaign.jobs.push_back(spec);
    }
    return campaign;
}

TEST(Campaign, NamedCampaignsAreWellFormed)
{
    for (const std::string &name : campaignNames()) {
        const Campaign campaign = makeCampaign(name);
        EXPECT_EQ(campaign.name, name);
        EXPECT_FALSE(campaign.jobs.empty()) << name;
        std::set<std::uint32_t> ids;
        for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
            EXPECT_EQ(campaign.jobs[i].id, i) << name;
            ids.insert(campaign.jobs[i].id);
        }
        EXPECT_EQ(ids.size(), campaign.jobs.size()) << name;
    }
}

TEST(Campaign, ExistsMatchesNameList)
{
    for (const std::string &name : campaignNames())
        EXPECT_TRUE(campaignExists(name)) << name;
    EXPECT_FALSE(campaignExists("no-such-campaign"));
}

TEST(Campaign, AtLeastTwelveJobsInEveryPaperCampaign)
{
    // The acceptance bar: campaigns exercise real parallelism.
    for (const char *name : {"fig7a", "table4", "table5", "smoke"})
        EXPECT_GE(makeCampaign(name).jobs.size(), 12u) << name;
}

TEST(CampaignDeterminism, SameSeedsSameJsonRegardlessOfJobs)
{
    const Campaign campaign = tinyCampaign();

    RunOptions serial;
    serial.jobs = 1;
    const CampaignRunResult a = runCampaign(campaign, serial);

    RunOptions wide;
    wide.jobs = 8;
    const CampaignRunResult b = runCampaign(campaign, wide);

    ASSERT_EQ(a.results.size(), campaign.jobs.size());
    ASSERT_EQ(b.results.size(), campaign.jobs.size());
    EXPECT_EQ(reportJson(campaign, a.results),
              reportJson(campaign, b.results));
}

TEST(CampaignDeterminism, CacheDoesNotChangeResults)
{
    const Campaign campaign = tinyCampaign();

    RunOptions no_mem;
    no_mem.jobs = 2;
    no_mem.memory_cache = false;
    const CampaignRunResult a = runCampaign(campaign, no_mem);

    RunOptions with_mem;
    with_mem.jobs = 2;
    const CampaignRunResult b = runCampaign(campaign, with_mem);

    EXPECT_EQ(reportJson(campaign, a.results),
              reportJson(campaign, b.results));
}

TEST(Report, FormatDoubleRoundTrips)
{
    // 1e300 and +-9.3e18 lie outside long long's range.
    for (const double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 12345.678,
                           1e-9, 2.2250738585072014e-308, 1e300, -1e300,
                           9.3e18, -9.3e18}) {
        const std::string text = formatDouble(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    // Integral values print as plain integers, not scientific form.
    EXPECT_EQ(formatDouble(10.0), "10");
    EXPECT_EQ(formatDouble(-3.0), "-3");
    EXPECT_EQ(formatDouble(0.0), "0");
}

TEST(Report, JsonContainsNoTimingFields)
{
    const Campaign campaign = tinyCampaign();
    RunOptions options;
    options.jobs = 2;
    const CampaignRunResult run = runCampaign(campaign, options);
    const std::string json = reportJson(campaign, run.results);
    EXPECT_EQ(json.find("wall_ms"), std::string::npos);
    EXPECT_NE(json.find("\"campaign\": \"tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"format\": 1"), std::string::npos);
}

TEST(Report, CsvRoundTripsThroughLoader)
{
    const Campaign campaign = tinyCampaign();
    RunOptions options;
    options.jobs = 2;
    const CampaignRunResult run = runCampaign(campaign, options);
    const std::string csv = reportCsv(campaign, run.results);

    const std::string path =
        ::testing::TempDir() + "act-test-report.csv";
    ASSERT_TRUE(writeTextFile(path, csv));
    std::vector<ReportRow> rows;
    ASSERT_TRUE(loadReportCsv(path, rows));
    std::remove(path.c_str());

    EXPECT_FALSE(rows.empty());
    // Every job must contribute at least one metric row plus wall_ms.
    std::set<std::uint32_t> ids;
    bool saw_wall = false;
    for (const ReportRow &row : rows) {
        ids.insert(row.id);
        if (row.key == "wall_ms")
            saw_wall = true;
    }
    EXPECT_EQ(ids.size(), campaign.jobs.size());
    EXPECT_TRUE(saw_wall);
}

} // namespace
} // namespace act
