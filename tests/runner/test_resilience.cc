/**
 * @file
 * Tests for the runner's failure handling — structured failure capture,
 * fail-fast skipping and the report's failure fields — plus the shape
 * of the table-resilience campaign and the rate-0 equivalence of its
 * jobs.
 */

#include <gtest/gtest.h>

#include <string>

#include "runner/campaign.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "runner/trace_cache.hh"
#include "workloads/kernel.hh"

namespace act
{
namespace
{

/** A fast real job: tiny prediction cell on the lu kernel. */
JobSpec
quickJob(std::uint32_t id)
{
    JobSpec spec;
    spec.id = id;
    spec.kind = JobKind::kPrediction;
    spec.scheme = Scheme::kAct;
    spec.workload = "lu";
    spec.knobs.train_traces = 1;
    spec.knobs.test_traces = 1;
    spec.knobs.max_epochs = 2;
    spec.knobs.max_examples = 200;
    return spec;
}

/**
 * A real failing job: a corpus cell whose workload is not a valid
 * corpus name, which the corpus job rejects by throwing before it
 * records anything.
 */
JobSpec
failingJob(std::uint32_t id)
{
    JobSpec spec;
    spec.id = id;
    spec.kind = JobKind::kCorpus;
    spec.scheme = Scheme::kAct;
    spec.workload = "corpus/nope/x/1";
    return spec;
}

RunOptions
quickOptions()
{
    RunOptions options;
    options.jobs = 2;
    return options;
}

TEST(Resilience, CrashBecomesStructuredFailure)
{
    Campaign campaign;
    campaign.name = "t";
    campaign.jobs = {failingJob(0), quickJob(1)};

    const CampaignRunResult run = runCampaign(campaign, quickOptions());
    ASSERT_EQ(run.results.size(), 2u);

    const JobResult &failed = run.results[0];
    EXPECT_EQ(failed.id, 0u);
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.failure, JobFailure::kException);
    EXPECT_NE(failed.error.find("corpus variant rejected"),
              std::string::npos)
        << failed.error;
    EXPECT_NE(failed.error.find("bad-name"), std::string::npos)
        << failed.error;

    // The healthy neighbour is untouched under the default keep_going.
    EXPECT_TRUE(run.results[1].ok);
    EXPECT_EQ(run.results[1].failure, JobFailure::kNone);
    EXPECT_EQ(run.failedJobs(), 1u);
}

TEST(Resilience, KeepGoingRunsEveryFailingJob)
{
    Campaign campaign;
    campaign.name = "t";
    for (std::uint32_t id = 0; id < 4; ++id)
        campaign.jobs.push_back(failingJob(id));

    RunOptions options = quickOptions();
    options.jobs = 1;
    const CampaignRunResult run = runCampaign(campaign, options);
    ASSERT_EQ(run.results.size(), 4u);
    for (const JobResult &result : run.results)
        EXPECT_EQ(result.failure, JobFailure::kException) << result.id;
    EXPECT_EQ(run.failedJobs(), 4u);
}

TEST(Resilience, FailFastSkipsJobsNotYetStarted)
{
    // Every job fails, so whichever the (single, so strictly serial)
    // worker picks first fails and arms the abort flag — the other
    // three must be recorded as skipped, never attempted. This holds
    // regardless of the pool's claim order.
    Campaign campaign;
    campaign.name = "t";
    for (std::uint32_t id = 0; id < 4; ++id)
        campaign.jobs.push_back(failingJob(id));

    RunOptions options = quickOptions();
    options.jobs = 1;
    options.keep_going = false;
    const CampaignRunResult run = runCampaign(campaign, options);
    ASSERT_EQ(run.results.size(), 4u);
    std::size_t thrown = 0;
    std::size_t skipped = 0;
    for (const JobResult &result : run.results) {
        EXPECT_FALSE(result.ok);
        if (result.failure == JobFailure::kException) {
            EXPECT_NE(result.error.find("corpus variant rejected"),
                      std::string::npos);
            ++thrown;
        } else {
            EXPECT_EQ(result.failure, JobFailure::kSkipped);
            EXPECT_NE(result.error.find("fail-fast"), std::string::npos);
            ++skipped;
        }
    }
    EXPECT_EQ(thrown, 1u);
    EXPECT_EQ(skipped, 3u);
    EXPECT_EQ(run.failedJobs(), 4u);
}

TEST(Resilience, ReportCarriesFailureFieldsOnlyForFailedJobs)
{
    Campaign campaign;
    campaign.name = "t";
    campaign.jobs = {failingJob(0), quickJob(1)};

    const CampaignRunResult run = runCampaign(campaign, quickOptions());
    const std::string json = reportJson(campaign, run.results);

    // Exactly one job failed, so the failure and error keys appear
    // exactly once each: a healthy job carries neither.
    for (const char *key : {"\"failure\"", "\"error\""}) {
        const std::size_t first = json.find(key);
        ASSERT_NE(first, std::string::npos) << key;
        EXPECT_EQ(json.find(key, first + 1), std::string::npos) << key;
    }
    EXPECT_NE(json.find("\"failure\": \"exception\""), std::string::npos);
    // No job, failed or not, carries an attempt count.
    EXPECT_EQ(json.find("\"attempts\""), std::string::npos);
    EXPECT_EQ(reportCsv(campaign, run.results).find("attempts"),
              std::string::npos);
}

TEST(ResilienceCampaign, SweepsFourFaultRatesOnPbzip2)
{
    const Campaign campaign = makeCampaign("table-resilience");
    ASSERT_EQ(campaign.jobs.size(), 4u);
    const double rates[] = {0.0, 0.002, 0.01, 0.05};
    for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
        const JobSpec &spec = campaign.jobs[i];
        EXPECT_EQ(spec.id, i);
        EXPECT_EQ(spec.kind, JobKind::kResilience) << i;
        EXPECT_EQ(spec.scheme, Scheme::kAct) << i;
        EXPECT_EQ(spec.workload, "pbzip2") << i;
        EXPECT_EQ(spec.knobs.fault_rate, rates[i]) << i;
        EXPECT_EQ(spec.knobs.fault_seed, 0xfa117u) << i;
    }
}

TEST(Resilience, RateZeroResilienceJobMatchesDiagnoseAct)
{
    registerAllWorkloads();
    TraceCache cache; // shared: the second job reuses the traces

    JobSpec act;
    act.id = 0;
    act.kind = JobKind::kDiagnoseAct;
    act.scheme = Scheme::kAct;
    act.workload = "pbzip2";
    act.knobs.train_traces = 2;
    act.knobs.postmortem_traces = 2;
    act.knobs.diagnosis_epochs = 10;
    act.knobs.diagnosis_max_examples = 1000;

    JobSpec resilience = act;
    resilience.kind = JobKind::kResilience;
    resilience.knobs.fault_rate = 0.0;
    resilience.knobs.fault_seed = 0xfa117;

    const JobResult base = runJob(act, cache);
    const JobResult faulted = runJob(resilience, cache);
    ASSERT_TRUE(base.ok);
    ASSERT_TRUE(faulted.ok);

    // Every diagnosis metric the plain job reports must be bit-equal
    // under a dormant fault plan; the resilience job only *adds* its
    // injection accounting on top.
    for (const auto &[key, value] : base.metrics) {
        const auto it = faulted.metrics.find(key);
        ASSERT_NE(it, faulted.metrics.end()) << key;
        EXPECT_EQ(it->second, value) << key;
    }
    EXPECT_EQ(faulted.metrics.at("injections"), 0.0);
    EXPECT_EQ(faulted.metrics.at("fault_rate"), 0.0);
}

} // namespace
} // namespace act
