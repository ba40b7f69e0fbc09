/**
 * @file
 * Selective weight protection: checksums + shadow copies for the
 * fault-sensitive slice of the weight store.
 *
 * Guarding every stored set would double the binary-resident weight
 * footprint; most sets don't need it, because most bit flips either
 * land in sets the quarantine layer already rejects wholesale or
 * perturb values too small to matter. WeightGuard spends the
 * protection budget where probing says silent damage concentrates:
 *
 *  1. rank every stored set by its empirical sensitivity — seeded
 *     bit-flip probes classified into detectable vs silent, silent
 *     flips scored by perturbation magnitude (faults/sensitivity);
 *  2. guard the top `protect_fraction` of sets with an FNV-1a
 *     checksum over the IEEE-754 bit patterns plus a full shadow
 *     copy;
 *  3. at thread start (ActConfig::protector -> inspect), recompute the
 *     checksum of the set about to be loaded; on mismatch, restore the
 *     shadow copy in place — the module keeps its trained weights
 *     instead of quarantining into a from-scratch retrain.
 *
 * The guard is built from the *clean* store (after offline training,
 * before deployment faults) and is immutable afterwards, mirroring
 * where a real deployment would compute and stash the checksums.
 */

#ifndef ACT_FAULTS_WEIGHT_GUARD_HH
#define ACT_FAULTS_WEIGHT_GUARD_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "act/act_config.hh"
#include "faults/sensitivity.hh"

namespace act
{

class WeightStore;

/** Knobs of the selective protection pass. */
struct WeightProtectionConfig
{
    bool enabled = false;

    /** Fraction of stored sets to guard, most sensitive first. */
    double protect_fraction = 0.5;

    /** Bit-flip probes per set for the sensitivity ranking. */
    std::size_t probes = 32;

    /** Seed of the probe pattern (reproducible ranking). */
    std::uint64_t probe_seed = 0x5ead5;
};

/**
 * The concrete WeightProtector. Build once from a clean store; inspect
 * from any number of module initThread calls (const, no mutable
 * state — safe to share across campaign threads).
 */
class WeightGuard final : public WeightProtector
{
  public:
    /**
     * Probe and rank every set in @p store, then record checksums and
     * shadow copies for the `protect_fraction` most sensitive ones.
     */
    static WeightGuard build(const WeightStore &store,
                             const WeightProtectionConfig &config);

    /** Is thread @p tid's set one of the guarded sets? */
    bool guarded(ThreadId tid) const { return guards_.count(tid) != 0; }

    /** Guarded set count (<= ceil(protect_fraction x stored sets)). */
    std::size_t guardedCount() const { return guards_.size(); }

    /** All probed sensitivities, most sensitive first (for reports). */
    const std::vector<WeightSensitivity> &ranking() const
    {
        return ranking_;
    }

    // --- WeightProtector -------------------------------------------

    /**
     * Checksum-verify @p weights against the guard record for
     * @p tid; restore the shadow copy on mismatch. Unguarded sets
     * pass through untouched. @return true when a repair happened.
     */
    bool inspect(ThreadId tid,
                 std::vector<double> &weights) const override;

  private:
    struct Guard
    {
        std::uint64_t checksum = 0;
        std::vector<double> shadow;
    };

    std::unordered_map<ThreadId, Guard> guards_;
    std::vector<WeightSensitivity> ranking_;
};

/** FNV-1a over the IEEE-754 bit patterns of @p weights. */
std::uint64_t weightChecksum(const std::vector<double> &weights);

} // namespace act

#endif // ACT_FAULTS_WEIGHT_GUARD_HH
