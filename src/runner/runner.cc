#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>

#include "runner/thread_pool.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"
#include "workloads/workload.hh"

namespace act
{

namespace
{

/**
 * Runner metric handles, registered once. Job-outcome counts are
 * kStable: for a campaign that does not trip fail-fast, every job's
 * outcome is a pure function of its spec, so the sums are thread-count
 * independent. Fail-fast skips are a scheduling artefact and stay
 * kVolatile.
 */
struct RunnerMetrics
{
    telemetry::Counter campaigns;
    telemetry::Counter jobs_ok;
    telemetry::Counter jobs_failed;
    telemetry::Counter jobs_skipped;
    telemetry::LatencyHistogram job_ms;

    static const RunnerMetrics &
    get()
    {
        static const RunnerMetrics metrics = [] {
            auto &reg = telemetry::MetricsRegistry::global();
            RunnerMetrics m;
            m.campaigns = reg.counter("runner.campaigns");
            m.jobs_ok = reg.counter("runner.jobs_ok");
            m.jobs_failed = reg.counter("runner.jobs_failed");
            m.jobs_skipped = reg.counter(
                "runner.jobs_skipped", telemetry::Stability::kVolatile);
            m.job_ms = reg.histogram("runner.job_ms");
            return m;
        }();
        return metrics;
    }
};

/**
 * Run one job with exception isolation: whatever escapes it becomes a
 * structured kException result — a throwing job never takes the
 * campaign down, and the job is not re-run, since re-running a
 * deterministic job reproduces its failure.
 */
JobResult
executeJob(const JobSpec &spec, TraceCache &cache)
{
    const RunnerMetrics &metrics = RunnerMetrics::get();
    telemetry::ScopedSpan span("job:" + spec.workload, "runner");
    span.annotate(telemetry::arg("job", std::uint64_t{spec.id}));
    span.annotate(telemetry::arg("kind", jobKindName(spec.kind)));

    JobResult failed;
    failed.id = spec.id;
    failed.failure = JobFailure::kException;
    try {
        JobResult result = runJob(spec, cache);
        metrics.jobs_ok.inc();
        metrics.job_ms.record(static_cast<std::uint64_t>(result.wall_ms));
        span.annotate(telemetry::arg("outcome", "ok"));
        return result;
    } catch (const std::exception &e) {
        failed.error = e.what();
    } catch (...) {
        failed.error = "unknown exception";
    }
    span.annotate(telemetry::arg("outcome", "exception"));
    metrics.jobs_failed.inc();
    return failed;
}

} // namespace

CampaignRunResult
runCampaign(const Campaign &campaign, const RunOptions &options)
{
    registerAllWorkloads();

    const RunnerMetrics &metrics = RunnerMetrics::get();
    metrics.campaigns.inc();
    telemetry::ScopedSpan campaign_span("campaign", "runner");
    campaign_span.annotate(telemetry::arg(
        "jobs", static_cast<std::uint64_t>(campaign.jobs.size())));

    CampaignRunResult run;
    run.results.resize(campaign.jobs.size());

    TraceCache cache(options.cache_dir, options.memory_cache);
    std::atomic<bool> abort{false};

    const auto start = std::chrono::steady_clock::now();
    {
        WorkStealingPool pool(options.jobs);
        run.threads = pool.threadCount();
        for (const JobSpec &spec : campaign.jobs) {
            JobResult &slot = run.results[spec.id];
            pool.submit([&spec, &slot, &cache, &options, &abort] {
                if (abort.load()) {
                    slot.id = spec.id;
                    slot.ok = false;
                    slot.failure = JobFailure::kSkipped;
                    slot.error = "skipped after an earlier failure "
                                 "(fail-fast)";
                    RunnerMetrics::get().jobs_skipped.inc();
                    return;
                }
                slot = executeJob(spec, cache);
                if (slot.failure != JobFailure::kNone &&
                    !options.keep_going) {
                    abort.store(true);
                }
                if (options.verbose) {
                    if (slot.failure == JobFailure::kNone) {
                        std::fprintf(stderr,
                                     "  [%3u] %-16s %-14s %8.0f ms\n",
                                     spec.id, spec.workload.c_str(),
                                     jobKindName(spec.kind),
                                     slot.wall_ms);
                    } else {
                        std::fprintf(stderr,
                                     "  [%3u] %-16s %-14s FAILED (%s)\n",
                                     spec.id, spec.workload.c_str(),
                                     jobKindName(spec.kind),
                                     jobFailureName(slot.failure));
                    }
                }
            });
        }
        pool.wait();
        run.steals = pool.stealCount();
    }
    run.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    run.cache = cache.stats();

    // Publish pool and cache statistics as counter deltas once per
    // campaign: the hot paths stay free of telemetry calls, and the
    // registry still accumulates correctly across in-process runs.
    auto &reg = telemetry::MetricsRegistry::global();
    if (reg.enabled()) {
        static const auto steals =
            reg.counter("pool.steals", telemetry::Stability::kVolatile);
        static const auto cache_memory_hits = reg.counter(
            "cache.memory_hits", telemetry::Stability::kVolatile);
        static const auto cache_disk_hits = reg.counter(
            "cache.disk_hits", telemetry::Stability::kVolatile);
        static const auto cache_misses = reg.counter(
            "cache.misses", telemetry::Stability::kVolatile);
        static const auto cache_stores = reg.counter(
            "cache.stores", telemetry::Stability::kVolatile);
        static const auto cache_evictions = reg.counter(
            "cache.evictions", telemetry::Stability::kVolatile);
        static const auto cache_lint_rejects = reg.counter(
            "cache.lint_rejects", telemetry::Stability::kVolatile);
        static const auto cache_checksum_rejects = reg.counter(
            "cache.checksum_rejects", telemetry::Stability::kVolatile);
        steals.add(run.steals);
        cache_memory_hits.add(run.cache.memory_hits);
        cache_disk_hits.add(run.cache.disk_hits);
        cache_misses.add(run.cache.misses);
        cache_stores.add(run.cache.stores);
        cache_evictions.add(run.cache.evictions);
        cache_lint_rejects.add(run.cache.lint_rejects);
        cache_checksum_rejects.add(run.cache.checksum_rejects);
    }
    return run;
}

} // namespace act
