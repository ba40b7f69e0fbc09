/**
 * @file
 * Empirical fault-sensitivity probing of stored weight sets.
 *
 * Not every weight register matters equally under bit rot. A flipped
 * exponent that lands outside the Q15.16 range is *detectable*: the
 * quarantine layer rejects the whole set at thread start and the
 * module retrains — degraded but safe. A mantissa flip that stays in
 * range is *silent*: the network keeps classifying with a perturbed
 * weight and nothing downstream ever notices. Selective weight
 * protection wants to spend its checksum/shadow budget on the sets
 * where silent flips do the most damage, so this prober measures that
 * directly: seeded single-bit flips (the same corruption model
 * FaultInjector::corruptWeightStore applies) replayed over a set,
 * classified into detectable vs silent, with silent flips scored by
 * the magnitude of the value perturbation they cause.
 */

#ifndef ACT_FAULTS_SENSITIVITY_HH
#define ACT_FAULTS_SENSITIVITY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace act
{

/** Outcome of probing one weight set. */
struct WeightSensitivity
{
    ThreadId tid = 0;          //!< Thread whose set was probed.
    std::size_t probes = 0;    //!< Bit flips attempted.
    std::size_t detectable = 0; //!< Flips the quarantine layer catches.
    std::size_t silent = 0;     //!< Flips that pass validation.

    /**
     * Total |perturbation| over the silent flips, measured in weight
     * units and clamped per flip to the Q15.16 range so one large (but
     * still representable) excursion cannot saturate the score. Higher
     * = more undetected damage per unit of fault exposure.
     */
    double silent_damage = 0.0;

    /** Silent flips per probe (the chance corruption goes unnoticed). */
    double
    silentRate() const
    {
        return probes == 0
                   ? 0.0
                   : static_cast<double>(silent) /
                         static_cast<double>(probes);
    }
};

/**
 * Probe @p weights with @p probes seeded single-bit flips. Every flip
 * targets a (register, bit) pair derived from (@p seed, @p tid,
 * probe index) hashes, so a ranking is reproducible from its
 * configuration alone. @p weight_limit is the detectability boundary
 * (pass kHwWeightLimit; a parameter so tests can tighten it).
 */
WeightSensitivity probeWeightSensitivity(ThreadId tid,
                                         std::span<const double> weights,
                                         std::size_t probes,
                                         std::uint64_t seed,
                                         double weight_limit);

} // namespace act

#endif // ACT_FAULTS_SENSITIVITY_HH
