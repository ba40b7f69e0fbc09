/**
 * @file
 * Corpus sweep aggregation: join kCorpus job results back into the
 * per-bug-class precision/recall report.
 *
 * A corpus campaign is independent kCorpus jobs flowing through the
 * ordinary runner (cache, --jobs). Each job
 * deposits its joined diagnosis-vs-catalog outcome as flat metrics;
 * this translation layer lifts those rows into corpus::CorpusOutcome
 * records and renders the deterministic `table6-corpus` table. Failed
 * jobs are excluded from the pool — they are already surfaced by the
 * runner's FAILED JOBS accounting, and silently scoring half-run
 * variants would skew the curves.
 */

#ifndef ACT_RUNNER_CORPUS_SWEEP_HH
#define ACT_RUNNER_CORPUS_SWEEP_HH

#include <string>
#include <vector>

#include "corpus/score.hh"
#include "runner/job.hh"

namespace act
{

/** True when @p campaign contains at least one kCorpus job. */
bool campaignHasCorpus(const Campaign &campaign);

/**
 * Lift the kCorpus rows of a finished campaign into outcomes, in job
 * id order. Non-corpus and failed jobs are skipped.
 */
std::vector<corpus::CorpusOutcome>
corpusOutcomes(const Campaign &campaign,
               const std::vector<JobResult> &results);

/** Render the table6-corpus report for a finished campaign. */
std::string corpusSweepReport(const Campaign &campaign,
                              const std::vector<JobResult> &results);

} // namespace act

#endif // ACT_RUNNER_CORPUS_SWEEP_HH
