/**
 * @file
 * Adaptivity sweep aggregation: join kAdaptivity job results back into
 * the per-configuration accuracy-degradation table.
 *
 * A table-adaptivity campaign is a grid of independent kAdaptivity
 * jobs — configurations (baseline / protected) crossed with
 * stored-weight fault rates — flowing through the ordinary runner.
 * Each job deposits its headline accuracy and the module's hardening
 * counters as flat metrics; this translation layer pivots those rows
 * into one line per cell and a summary per configuration, with the
 * accuracy-loss column (rate-0 accuracy minus the lowest accuracy
 * over the nonzero rates) the acceptance criterion reads. Failed jobs
 * are excluded from the pool — they are already surfaced by the
 * runner's FAILED JOBS accounting.
 */

#ifndef ACT_RUNNER_ADAPTIVITY_SWEEP_HH
#define ACT_RUNNER_ADAPTIVITY_SWEEP_HH

#include <string>
#include <vector>

#include "runner/job.hh"

namespace act
{

/** One kAdaptivity cell lifted back out of its flat metrics. */
struct AdaptivityOutcome
{
    std::string config;      //!< baseline | protected (from the knobs).
    double fault_rate = 0.0;
    /** (diagnosed + root_logged + oracle prec + log prec) / 4. */
    double accuracy = 0.0;
    double repaired = 0.0;   //!< Shadow-copy weight repairs.
    double quarantined = 0.0;
    double mode_switches = 0.0;
};

/**
 * The configuration label of a kAdaptivity cell: "protected" under
 * weight protection, else "baseline" (the paper's module).
 */
std::string adaptivityConfigLabel(const JobKnobs &knobs);

/** True when @p campaign contains at least one kAdaptivity job. */
bool campaignHasAdaptivity(const Campaign &campaign);

/**
 * Lift the kAdaptivity rows of a finished campaign into outcomes, in
 * job id order. Non-adaptivity and failed jobs are skipped.
 */
std::vector<AdaptivityOutcome>
adaptivityOutcomes(const Campaign &campaign,
                   const std::vector<JobResult> &results);

/** Render the table-adaptivity report for a finished campaign. */
std::string adaptivitySweepReport(const Campaign &campaign,
                                  const std::vector<JobResult> &results);

} // namespace act

#endif // ACT_RUNNER_ADAPTIVITY_SWEEP_HH
