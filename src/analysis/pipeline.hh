/**
 * @file
 * The analysis pipeline: every offline detector in one pass.
 *
 * Runs the lockset and atomicity detectors, the order-violation checker
 * (only when given mined invariants) and the vector-clock
 * happens-before oracle over one (read-only) trace, and merges the
 * detector findings in fixed detector order into one deduplicated
 * AnalysisReport.
 *
 * The ensemble scorer extends RaceReport::score() to every lens: for a
 * set of predicted RAW dependences (ACT's ranked Debug Buffer
 * candidates) it produces one OracleScore per detector — ground truth
 * being that detector's findings — plus a fused score where a
 * prediction counts as a true positive when *any* lens corroborates it.
 * That is what table5/diagnose-act report as the per-detector and fused
 * precision/recall columns.
 *
 * Dormancy contract (DESIGN section 13): nothing in this file runs
 * unless a caller asks for it. Campaign reports are byte-identical with
 * the pipeline disabled, and telemetry counters ("analysis.*") follow
 * the usual disabled-registry rules.
 */

#ifndef ACT_ANALYSIS_PIPELINE_HH
#define ACT_ANALYSIS_PIPELINE_HH

#include <map>
#include <string>

#include "analysis/atomicity.hh"
#include "analysis/detector.hh"
#include "analysis/lockset.hh"
#include "analysis/order_check.hh"
#include "analysis/race_oracle.hh"

namespace act
{

/** Invariants mined from passing traces for the training-able lenses. */
struct MinedBaselines
{
    AtomicityBaseline atomicity;
    OrderInvariants order;

    /** Fold one passing trace into both baselines. */
    void
    addPassingTrace(const Trace &trace)
    {
        atomicity.addPassingTrace(trace);
        order.addPassingTrace(trace);
    }
};

/** Everything one pipeline pass learned about a trace. */
struct PipelineResult
{
    /** Merged detector findings (lockset/atomicity/order). */
    AnalysisReport report;

    /** The happens-before oracle's racy pairs. */
    RaceReport races;

    /** Whether the order lens ran (it needs mined invariants). */
    bool order_checked = false;

    /**
     * Deterministic rendering: per-detector finding counts (none for
     * the order lens when it did not run), then the ranked findings,
     * then the oracle's racy pairs.
     */
    std::string toText() const;
};

/**
 * Run every detector over @p trace. With @p baselines null, the
 * atomicity detector runs in single-trace mode and the order checker,
 * which has nothing to check against, does not run.
 */
PipelineResult runAnalysisPipeline(const Trace &trace,
                                   const MinedBaselines *baselines = nullptr);

/** Per-lens + fused precision/recall of a prediction set. */
struct EnsembleScore
{
    /** Keyed "lockset", "atomicity", "order", "hb". */
    std::map<std::string, OracleScore> per_detector;

    /** TP when any lens corroborates the predicted pair. */
    OracleScore fused;
};

/**
 * Score predicted RAW dependences against every lens of @p result.
 * Intra-thread predictions are skipped (same convention as
 * RaceReport::score); duplicate predicted pairs count once.
 */
EnsembleScore scoreEnsemble(const PipelineResult &result,
                            const std::vector<RawDependence> &predictions);

} // namespace act

#endif // ACT_ANALYSIS_PIPELINE_HH
