/**
 * @file
 * Configuration of the per-core ACT Module (Table III defaults).
 */

#ifndef ACT_ACT_ACT_CONFIG_HH
#define ACT_ACT_ACT_CONFIG_HH

#include <cstdint>

#include "act/buffers.hh"
#include "common/fault_hooks.hh"
#include "common/types.hh"
#include "hwnn/pipeline.hh"
#include "nn/network.hh"

namespace act
{

class WeightGuard;

/** All knobs of one ACT Module. */
struct ActConfig
{
    /** Dependences per neural-network input sequence (N). */
    std::size_t sequence_length = 3;

    /** Input Generator Buffer entries (Table III: 50). */
    std::size_t input_buffer_entries = kInputGeneratorBufferEntries;

    /** Debug Buffer entries (Table III: 60). */
    std::size_t debug_buffer_entries = kDebugBufferEntries;

    /** Misprediction-rate threshold driving mode switches (5%). */
    double misprediction_threshold = 0.05;

    /** Predictions per misprediction-rate measurement interval. */
    std::uint64_t interval_length = 2000;

    /** On-line back-propagation learning rate. */
    double learning_rate = 0.2;

    /** Hardware network parameters (pipeline + neuron). */
    HwNetworkConfig hw;

    /** Logical topology (inputs must equal sequence_length x encoder
     *  width; checked at module construction). */
    Topology topology{6, 10};

    /**
     * Fault-injection decision points (resilience experiments only).
     * Null — the default — means no faults; the hot path then costs
     * one never-taken branch per site. Non-owning: the campaign job
     * that wires an injector keeps it alive for the run.
     */
    FaultHooks *faults = nullptr;

    /**
     * Weight protection consulted at initThread. Null — the default —
     * skips the check entirely (one never-taken branch per thread
     * start). Non-owning, same lifetime contract as `faults`.
     */
    const WeightGuard *protector = nullptr;
};

/**
 * Cost model of the ISA extension (Table II).
 *
 * chkwt/ldwt/stwt are simple register-file accesses: one instruction
 * each. Loading or storing a full weight set runs a loop of one
 * ldwt/stwt plus one ordinary load/store per weight register.
 */
struct IsaCostModel
{
    /** Instructions to check a thread's weights (chkwt). */
    static constexpr std::uint32_t kCheckInstructions = 1;

    /** Instructions to transfer one weight (ldwt/stwt + memory op). */
    static constexpr std::uint32_t kPerWeightInstructions = 2;

    /** Instructions to load/store a whole weight set. */
    static std::uint32_t
    weightTransferInstructions(std::size_t weight_count)
    {
        return kCheckInstructions +
               kPerWeightInstructions *
                   static_cast<std::uint32_t>(weight_count);
    }
};

} // namespace act

#endif // ACT_ACT_ACT_CONFIG_HH
