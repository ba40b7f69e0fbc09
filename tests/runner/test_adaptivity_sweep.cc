/**
 * @file
 * Tests for the table-adaptivity campaign and its sweep report:
 * campaign shape (configs x rates, dormant baseline), configuration
 * labels, outcome extraction, and the worst-case degradation summary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "runner/adaptivity_sweep.hh"
#include "runner/campaign.hh"
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

TEST(AdaptivityCampaign, IsRegisteredByName)
{
    EXPECT_TRUE(campaignExists("table-adaptivity"));
    const std::vector<std::string> names = campaignNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "table-adaptivity"),
              names.end());
    EXPECT_STREQ(jobKindName(JobKind::kAdaptivity), "adaptivity");
}

TEST(AdaptivityCampaign, SweepsTwoConfigsAcrossFourRates)
{
    const Campaign campaign = makeCampaign("table-adaptivity");
    ASSERT_EQ(campaign.jobs.size(), 8u);

    std::map<std::string, std::set<double>> rates_by_config;
    for (const JobSpec &spec : campaign.jobs) {
        EXPECT_EQ(spec.kind, JobKind::kAdaptivity);
        const std::string config = adaptivityConfigLabel(spec.knobs);
        rates_by_config[config].insert(spec.knobs.fault_rate);
        // The baseline cell is fully dormant: running it with rate 0
        // must be the plain diagnose-act path.
        EXPECT_EQ(spec.knobs.protect_weights, config == "protected");
    }
    // Each configuration sweeps the same range: clean to 5%.
    const std::set<double> rates{0.0, 0.002, 0.01, 0.05};
    EXPECT_EQ(rates_by_config,
              (std::map<std::string, std::set<double>>{
                  {"baseline", rates}, {"protected", rates}}));
}

TEST(AdaptivityCampaign, LabelsDeriveFromProtection)
{
    JobKnobs knobs;
    EXPECT_EQ(adaptivityConfigLabel(knobs), "baseline");
    knobs.protect_weights = true;
    EXPECT_EQ(adaptivityConfigLabel(knobs), "protected");
}

TEST(AdaptivityCampaign, DetectionHelperSeesOnlyAdaptivityJobs)
{
    EXPECT_TRUE(campaignHasAdaptivity(makeCampaign("table-adaptivity")));
    EXPECT_FALSE(campaignHasAdaptivity(makeCampaign("smoke")));
    EXPECT_FALSE(campaignHasAdaptivity(makeCampaign("table-resilience")));
}

/** A synthetic two-config, two-rate campaign plus matching results. */
Campaign
syntheticCampaign()
{
    Campaign campaign;
    campaign.name = "synthetic";
    for (std::uint32_t id = 0; id < 4; ++id) {
        JobSpec spec;
        spec.id = id;
        spec.kind = JobKind::kAdaptivity;
        spec.workload = "pbzip2";
        spec.knobs.fault_rate = (id % 2 == 0) ? 0.0 : 0.05;
        campaign.jobs.push_back(spec);
    }
    return campaign;
}

std::vector<JobResult>
syntheticResults()
{
    // baseline: 1.0 -> 0.6 (loss 0.4); protected: 0.9 -> 0.85 (0.05).
    const double accuracy[] = {1.0, 0.6, 0.9, 0.85};
    const char *configs[] = {"baseline", "baseline", "protected",
                             "protected"};
    std::vector<JobResult> results;
    for (std::uint32_t id = 0; id < 4; ++id) {
        JobResult result;
        result.id = id;
        result.ok = true;
        result.metrics["fault_rate"] = (id % 2 == 0) ? 0.0 : 0.05;
        result.metrics["accuracy"] = accuracy[id];
        result.metrics["repaired_weight_sets"] = (id == 3) ? 5.0 : 0.0;
        result.labels["config"] = configs[id];
        results.push_back(result);
    }
    return results;
}

TEST(AdaptivitySweep, OutcomesLiftMetricsAndSkipFailedJobs)
{
    const Campaign campaign = syntheticCampaign();
    std::vector<JobResult> results = syntheticResults();
    results[1].ok = false; // The baseline fault cell crashed.

    const std::vector<AdaptivityOutcome> outcomes =
        adaptivityOutcomes(campaign, results);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].config, "baseline");
    EXPECT_EQ(outcomes[0].fault_rate, 0.0);
    EXPECT_EQ(outcomes[0].accuracy, 1.0);
    EXPECT_EQ(outcomes[2].config, "protected");
    EXPECT_EQ(outcomes[2].repaired, 5.0);
}

TEST(AdaptivitySweep, ReportSummarisesWorstCaseLossPerConfig)
{
    const std::string report =
        adaptivitySweepReport(syntheticCampaign(), syntheticResults());

    // Every cell row and the per-config loss summary are present.
    EXPECT_NE(report.find("config"), std::string::npos);
    EXPECT_NE(report.find("accuracy loss"), std::string::npos);
    // baseline: 1.000 -> 0.600 at the swept rate.
    EXPECT_NE(report.find("baseline       0.400 (1.000 -> 0.600 at "
                          "rate 0.050)"),
              std::string::npos);
    // protected: 0.900 -> 0.850.
    EXPECT_NE(report.find("protected      0.050 (0.900 -> 0.850 at "
                          "rate 0.050)"),
              std::string::npos);
}

TEST(AdaptivitySweep, ConfigWithOnlyACleanCellLosesNothing)
{
    Campaign campaign;
    JobSpec spec;
    spec.id = 0;
    spec.kind = JobKind::kAdaptivity;
    spec.knobs.fault_rate = 0.0;
    campaign.jobs.push_back(spec);

    JobResult result;
    result.id = 0;
    result.ok = true;
    result.metrics["fault_rate"] = 0.0;
    result.metrics["accuracy"] = 0.97;
    result.labels["config"] = "baseline";

    const std::string report =
        adaptivitySweepReport(campaign, {result});
    EXPECT_NE(report.find("baseline       0.000"), std::string::npos);
}

} // namespace
} // namespace act
