/**
 * @file
 * Campaign execution: fan a campaign's jobs across a work-stealing
 * thread pool, feed every trace recording through a shared TraceCache,
 * and collect results into per-job slots (report order is the job
 * order, never the completion order).
 */

#ifndef ACT_RUNNER_RUNNER_HH
#define ACT_RUNNER_RUNNER_HH

#include <string>
#include <vector>

#include "runner/job.hh"
#include "runner/trace_cache.hh"

namespace act
{

/** Execution options. */
struct RunOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;

    /** Trace-cache directory; empty = in-memory cache only. */
    std::string cache_dir;

    /** Keep loaded traces resident for intra-run reuse. */
    bool memory_cache = true;

    /** Per-job progress lines on stderr. */
    bool verbose = false;

    /**
     * Keep running after a job fails (true, the default: the report
     * carries every failure). False = fail fast: jobs not yet started
     * are recorded as kSkipped.
     */
    bool keep_going = true;
};

/** A finished campaign. */
struct CampaignRunResult
{
    std::vector<JobResult> results; //!< Indexed by job id.
    TraceCache::Stats cache;
    double wall_ms = 0.0;
    std::uint64_t steals = 0;
    unsigned threads = 0;

    /** Jobs whose slot carries a failure (any JobFailure != kNone). */
    std::uint64_t
    failedJobs() const
    {
        std::uint64_t n = 0;
        for (const JobResult &r : results)
            n += r.failure != JobFailure::kNone ? 1 : 0;
        return n;
    }
};

/**
 * Run every job of @p campaign. Registers the workloads if needed.
 * The result vector always has one entry per job, in job order.
 */
CampaignRunResult runCampaign(const Campaign &campaign,
                              const RunOptions &options = {});

} // namespace act

#endif // ACT_RUNNER_RUNNER_HH
