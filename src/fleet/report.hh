/**
 * @file
 * Incremental, mergeable diagnosis reports for the fleet service.
 *
 * Each shard accumulates a FleetReport as it drains its ingress queue;
 * periodic epochs and the final answer are produced by merging the
 * shard reports. Merging is the whole design constraint: every field
 * is either a sum (totals, suspect counts) or an associative,
 * commutative reduction (min over raw outputs), so the merged result
 * is independent of shard count and of how clients interleaved — the
 * basis of the streaming-vs-batch byte-equivalence contract that
 * `actfleet validate` checks.
 */

#ifndef ACT_FLEET_REPORT_HH
#define ACT_FLEET_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/types.hh"

namespace act::fleet
{

/** Aggregate ingest/diagnosis counters. */
struct FleetTotals
{
    std::uint64_t clients = 0;
    std::uint64_t events = 0;            //!< Events ingested (processed).
    std::uint64_t blocks = 0;            //!< Blocks ingested.
    std::uint64_t dependences = 0;       //!< RAW deps formed.
    std::uint64_t predictions = 0;       //!< Sequences classified.
    std::uint64_t flagged = 0;           //!< Predicted invalid.
    std::uint64_t input_overwrites = 0;  //!< Input-ring saturation.
    std::uint64_t debug_overwrites = 0;  //!< Debug-ring saturation.
    std::uint64_t events_dropped = 0;    //!< Shed under backpressure.
    std::uint64_t blocks_dropped = 0;
    std::uint64_t lint_rejects = 0;      //!< Blocks failing batch lint.
};

/** Evidence accumulated against one suspect PC-pair. */
struct SuspectStat
{
    std::uint64_t count = 0; //!< Times the pair ended a flagged sequence.
    double min_raw = 0.0;    //!< Most negative raw NN output seen.
};

/**
 * One (partial or merged) diagnosis report.
 */
struct FleetReport
{
    FleetTotals totals;

    /** Flagged (store_pc, load_pc) pairs and their evidence. */
    std::map<std::pair<Pc, Pc>, SuspectStat> suspects;

    /** Account one flagged sequence ending in this pair. */
    void addSuspect(Pc store_pc, Pc load_pc, double raw);

    /** Fold @p other in (order-independent). */
    void merge(const FleetReport &other);

    /**
     * Deterministic text rendering: totals, then the top @p top_k
     * suspects ranked by count desc, then min_raw asc (most negative —
     * the paper's "most negative output first" tie-break), then pair.
     * Byte-comparable across runs, shard counts and streaming-vs-batch
     * for fault-free deterministic inputs under the kBlock policy.
     */
    std::string toText(std::size_t top_k) const;
};

} // namespace act::fleet

#endif // ACT_FLEET_REPORT_HH
