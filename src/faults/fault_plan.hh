/**
 * @file
 * Declarative description of a fault-injection experiment.
 *
 * A FaultPlan is pure data: a seed plus one rate per fault site. The
 * same plan fed to a FaultInjector over the same execution replays the
 * same injections — every decision is derived from (seed, site,
 * occurrence index) hashes, never from wall-clock or global state — so
 * a resilience sweep is as reproducible as the fault-free campaigns.
 */

#ifndef ACT_FAULTS_FAULT_PLAN_HH
#define ACT_FAULTS_FAULT_PLAN_HH

#include <cstdint>

namespace act
{

/** Per-site injection rates (all probabilities in [0, 1]). */
struct FaultPlan
{
    /** Root seed; two plans with different seeds inject independently. */
    std::uint64_t seed = 0;

    // --- Trace-stream corruption (offline artefacts) ----------------
    /** Per-event probability of flipping one bit of pc or addr. */
    double trace_bitflip_rate = 0.0;
    /** Per-event probability of dropping the record. */
    double trace_drop_rate = 0.0;
    /** Per-event probability of duplicating the record. */
    double trace_dup_rate = 0.0;
    /** Fraction of the tail to truncate (0 = keep whole trace). */
    double trace_truncate_fraction = 0.0;

    // --- Stored-weight corruption (binary-resident Q15.16 sets) -----
    /** Per-register probability of flipping one stored-weight bit. */
    double weight_bitflip_rate = 0.0;

    /**
     * Per-*bit* flip probability over every stored weight register —
     * the FIT-style formulation radiation experiments sweep. At rate r
     * each of a register's 64 bits flips independently, so small rates
     * already produce multi-bit damage per set (64r expected flips per
     * register). The adaptivity sweep uses this; uniform() leaves it
     * zero, keeping every pre-existing corruption stream bit-identical.
     */
    double weight_bit_rate = 0.0;

    // --- Coherence metadata faults (sim/memsys piggybacking) --------
    /** Per-transfer probability of losing the last-writer metadata. */
    double writer_drop_rate = 0.0;
    /** Per-transfer probability of delivering a stale writer PC. */
    double writer_stale_rate = 0.0;

    // --- AM buffer faults (act/buffers) ------------------------------
    /** Per-dependence probability of losing the Input Generator push. */
    double input_drop_rate = 0.0;
    /** Per-flag probability of losing the Debug Buffer log. */
    double debug_drop_rate = 0.0;

    /** Does this plan inject anything at all? */
    bool
    enabled() const
    {
        return trace_bitflip_rate > 0.0 || trace_drop_rate > 0.0 ||
               trace_dup_rate > 0.0 || trace_truncate_fraction > 0.0 ||
               weight_bitflip_rate > 0.0 || weight_bit_rate > 0.0 ||
               writer_drop_rate > 0.0 || writer_stale_rate > 0.0 ||
               input_drop_rate > 0.0 || debug_drop_rate > 0.0;
    }

    /**
     * The sweep shape `table-resilience` uses: one rate applied to
     * every per-occurrence site (truncation stays off — it would
     * dominate the sweep at any rate).
     */
    static FaultPlan
    uniform(double rate, std::uint64_t seed)
    {
        FaultPlan plan;
        plan.seed = seed;
        plan.trace_bitflip_rate = rate;
        plan.trace_drop_rate = rate;
        plan.trace_dup_rate = rate;
        plan.weight_bitflip_rate = rate;
        plan.writer_drop_rate = rate;
        plan.writer_stale_rate = rate;
        plan.input_drop_rate = rate;
        plan.debug_drop_rate = rate;
        return plan;
    }

    /**
     * The sweep shape `table-adaptivity` uses: all of the fault mass
     * on the stored weight sets — per stored *bit*, so the sweep walks
     * from pristine through silently-perturbed into grossly-corrupt
     * registers — and everything else pristine. This isolates exactly
     * the failure class selective weight protection is built to
     * absorb, so accuracy deltas in the sweep measure that mechanism
     * and not trace damage.
     */
    static FaultPlan
    weightsOnly(double rate, std::uint64_t seed)
    {
        FaultPlan plan;
        plan.seed = seed;
        plan.weight_bit_rate = rate;
        return plan;
    }
};

} // namespace act

#endif // ACT_FAULTS_FAULT_PLAN_HH
