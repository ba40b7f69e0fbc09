/**
 * @file
 * The `analyze` knob of a diagnose-act job adds the multi-detector
 * columns and changes nothing else. Smoke's pbzip2 cell runs through
 * runJob twice on one trace cache, with the knob off and on: every
 * column of the plain run, the race-oracle columns included, must read
 * the same in the analysed run, which adds exactly the lens columns.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "runner/campaign.hh"
#include "runner/trace_cache.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

TEST(DiagnoseActAnalysis, AnalyzeOnlyAddsTheLensColumns)
{
    registerAllWorkloads();
    JobSpec spec;
    for (const JobSpec &job : makeCampaign("smoke").jobs) {
        if (job.kind == JobKind::kDiagnoseAct)
            spec = job;
    }
    ASSERT_EQ(spec.workload, "pbzip2");

    TraceCache cache;
    spec.knobs.analyze = false;
    const JobResult off = runJob(spec, cache);
    spec.knobs.analyze = true;
    const JobResult on = runJob(spec, cache);
    ASSERT_TRUE(off.ok) << off.error;
    ASSERT_TRUE(on.ok) << on.error;

    for (const auto &[key, value] : off.metrics) {
        const auto it = on.metrics.find(key);
        ASSERT_NE(it, on.metrics.end()) << key;
        EXPECT_EQ(it->second, value) << key;
    }
    for (const auto &[key, value] : off.labels) {
        const auto it = on.labels.find(key);
        ASSERT_NE(it, on.labels.end()) << key;
        EXPECT_EQ(it->second, value) << key;
    }

    std::set<std::string> added;
    for (const auto &entry : on.metrics) {
        if (off.metrics.count(entry.first) == 0)
            added.insert(entry.first);
    }
    std::set<std::string> expected = {
        "analysis_findings", "analysis_root_flagged",
        "analysis_class_match", "det_lockset", "det_atomicity",
        "det_order"};
    for (const char *lens : {"lockset", "atomicity", "order", "hb", "fused"})
        for (const char *stat : {"tp", "fp", "prec", "recall"})
            expected.insert(std::string("ens_") + lens + "_" + stat);
    EXPECT_EQ(added, expected);

    EXPECT_EQ(on.labels.size(), off.labels.size() + 1);
    EXPECT_EQ(on.labels.at("analysis"), "lockset+atomicity+order+hb");
    EXPECT_EQ(on.metrics.at("analysis_class_match"), 1.0);
}

} // namespace
} // namespace act
