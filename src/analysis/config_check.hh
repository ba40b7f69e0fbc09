/**
 * @file
 * Static validation of ACT configurations and weight sets.
 *
 * The ACT Module used to enforce its construction-time contract with a
 * single assert (topology inputs = sequence length x encoder width);
 * everything else — buffer sizes, thresholds, hardware fan-in, weight
 * counts — failed late or silently. These validators turn the whole
 * contract into structured Findings so misconfigurations name the
 * offending knob and value: the module constructor reports every
 * violation before going fatal, and `actlint config` / `actlint
 * weights` run the same checks standalone.
 *
 * Header-only on purpose: the checks depend only on ActConfig /
 * Topology / plain weight vectors, so `act_act` can call them without
 * linking the analysis library (which itself links `act_act` for the
 * WeightStore-level pass in config_check.cc).
 */

#ifndef ACT_ANALYSIS_CONFIG_CHECK_HH
#define ACT_ANALYSIS_CONFIG_CHECK_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "act/act_config.hh"
#include "analysis/finding.hh"
#include "common/fixed_point.hh"
#include "nn/network.hh"

namespace act
{

/**
 * Largest weight magnitude the hardware weight registers can hold:
 * FixedPoint<16> stores Q15.16 in 32 bits, so anything at or beyond
 * |2^15| saturates when loaded via stwt and the software-trained value
 * is silently lost.
 */
inline constexpr double kHwWeightLimit =
    static_cast<double>(std::numeric_limits<std::int32_t>::max()) /
    HwFixed::kScale;

namespace detail
{

inline void
addConfigFinding(std::vector<Finding> &findings, const char *code,
                 std::string message)
{
    findings.push_back(makeFinding("config", code, Severity::kError,
                                   std::move(message)));
}

inline void
addConfigWarning(std::vector<Finding> &findings, const char *code,
                 std::string message)
{
    findings.push_back(makeFinding("config", code, Severity::kWarning,
                                   std::move(message)));
}

} // namespace detail

/**
 * Validate @p config for a module whose encoder emits
 * @p encoder_width values per dependence. Returns all violations
 * (empty = valid). Rule codes: "sequence-length", "topology",
 * "topology-mismatch", "fan-in", "input-buffer", "debug-buffer",
 * "threshold", "interval", "learning-rate", "fifo", "muladd", plus the
 * kWarning code "table3-divergence" when a buffer size departs from
 * the Table III defaults (legal — fig9 sweeps do it on purpose — but
 * worth flagging in a config under review).
 */
inline std::vector<Finding>
validateActConfig(const ActConfig &config, std::size_t encoder_width)
{
    std::vector<Finding> findings;
    const auto bad = [&findings](const char *code, std::string message) {
        detail::addConfigFinding(findings, code, std::move(message));
    };

    if (config.sequence_length < 1)
        bad("sequence-length", "sequence_length must be at least 1");
    if (!config.topology.valid()) {
        bad("topology",
            "topology " + std::to_string(config.topology.inputs) + "x" +
                std::to_string(config.topology.hidden) +
                " outside [1, " + std::to_string(kMaxFanIn) + "]^2");
    }
    if (encoder_width < 1) {
        bad("topology-mismatch", "encoder width must be at least 1");
    } else if (config.sequence_length >= 1 &&
               config.topology.inputs !=
                   config.sequence_length * encoder_width) {
        bad("topology-mismatch",
            "topology has " + std::to_string(config.topology.inputs) +
                " inputs but sequence_length " +
                std::to_string(config.sequence_length) + " x encoder width " +
                std::to_string(encoder_width) + " needs " +
                std::to_string(config.sequence_length * encoder_width));
    }
    if (config.topology.inputs > config.hw.neuron.max_inputs ||
        config.topology.hidden > config.hw.neuron.max_inputs) {
        bad("fan-in",
            "topology " + std::to_string(config.topology.inputs) + "x" +
                std::to_string(config.topology.hidden) +
                " exceeds hardware fan-in M=" +
                std::to_string(config.hw.neuron.max_inputs));
    }
    if (config.input_buffer_entries < config.sequence_length ||
        config.input_buffer_entries < 1) {
        bad("input-buffer",
            "input_buffer_entries " +
                std::to_string(config.input_buffer_entries) +
                " cannot hold a sequence of " +
                std::to_string(config.sequence_length));
    }
    if (config.debug_buffer_entries < 1)
        bad("debug-buffer", "debug_buffer_entries must be at least 1");
    if (!(config.misprediction_threshold > 0.0) ||
        !(config.misprediction_threshold < 1.0)) {
        bad("threshold",
            "misprediction_threshold " +
                std::to_string(config.misprediction_threshold) +
                " outside (0, 1)");
    }
    if (config.interval_length < 1)
        bad("interval", "interval_length must be at least 1");
    if (!(config.learning_rate > 0.0) || !(config.learning_rate <= 1.0)) {
        bad("learning-rate",
            "learning_rate " + std::to_string(config.learning_rate) +
                " outside (0, 1]");
    }
    if (config.hw.fifo_entries < 1)
        bad("fifo", "hw.fifo_entries must be at least 1");
    if (config.hw.neuron.muladd_units < 1 ||
        config.hw.neuron.muladd_units > config.hw.neuron.max_inputs) {
        bad("muladd",
            "hw.neuron.muladd_units " +
                std::to_string(config.hw.neuron.muladd_units) +
                " outside [1, M=" +
                std::to_string(config.hw.neuron.max_inputs) + "]");
    }
    if (config.input_buffer_entries != kInputGeneratorBufferEntries &&
        config.input_buffer_entries >= config.sequence_length) {
        detail::addConfigWarning(
            findings, "table3-divergence",
            "input_buffer_entries " +
                std::to_string(config.input_buffer_entries) +
                " diverges from the Table III default of " +
                std::to_string(kInputGeneratorBufferEntries));
    }
    if (config.debug_buffer_entries != kDebugBufferEntries &&
        config.debug_buffer_entries >= 1) {
        detail::addConfigWarning(
            findings, "table3-divergence",
            "debug_buffer_entries " +
                std::to_string(config.debug_buffer_entries) +
                " diverges from the Table III default of " +
                std::to_string(kDebugBufferEntries));
    }
    return findings;
}

/**
 * Validate one flat weight vector against @p topology and the hardware
 * fixed-point range. Rule codes: "weight-count", "weight-value".
 * @p label names the set in messages (e.g. "tid 3").
 */
inline std::vector<Finding>
validateWeights(const Topology &topology, std::span<const double> weights,
                const std::string &label = "weights")
{
    std::vector<Finding> findings;
    const std::size_t expected =
        topology.hidden * (topology.inputs + 1) + (topology.hidden + 1);
    if (weights.size() != expected) {
        findings.push_back(makeFinding(
            "weights", "weight-count", Severity::kError,
            label + ": " + std::to_string(weights.size()) +
                " weights but topology " + std::to_string(topology.inputs) +
                "x" + std::to_string(topology.hidden) + " needs " +
                std::to_string(expected)));
        return findings;
    }
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double w = weights[i];
        if (!std::isfinite(w) || std::fabs(w) > kHwWeightLimit) {
            findings.push_back(makeFinding(
                "weights", "weight-value", Severity::kError,
                label + ": weight register " + std::to_string(i) +
                    " value " + std::to_string(w) +
                    " outside the Q15.16 range (|w| <= " +
                    std::to_string(kHwWeightLimit) + ")"));
        }
    }
    return findings;
}

/**
 * validateWeights plus lint-grade hygiene warnings that the hot path
 * deliberately ignores: "weight-denormal" (kWarning) for IEEE-754
 * subnormal values and for non-zero magnitudes below the Q15.16
 * quantum 2^-16, both of which quantise to zero in the hardware and
 * usually indicate a truncated or bit-damaged store. Infinities and
 * NaNs are already "weight-value" errors in the base check.
 */
inline std::vector<Finding>
validateWeightsStrict(const Topology &topology,
                      std::span<const double> weights,
                      const std::string &label = "weights")
{
    std::vector<Finding> findings = validateWeights(topology, weights, label);
    if (!clean(findings))
        return findings;
    constexpr double kQ16Quantum = 1.0 / 65536.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double w = weights[i];
        if (w != 0.0 &&
            (std::fpclassify(w) == FP_SUBNORMAL ||
             std::fabs(w) < kQ16Quantum)) {
            findings.push_back(makeFinding(
                "weights", "weight-denormal", Severity::kWarning,
                label + ": weight register " + std::to_string(i) +
                    " value " + std::to_string(w) +
                    " quantises to zero in Q15.16 (|w| < 2^-16)"));
        }
    }
    return findings;
}

class WeightStore;

/**
 * Validate every weight set in @p store against its topology and the
 * hardware fixed-point range (compiled in the analysis library; adds
 * "topology" / "weight-count" / "weight-value" findings labelled per
 * thread id).
 */
std::vector<Finding> validateWeightStore(const WeightStore &store);

} // namespace act

#endif // ACT_ANALYSIS_CONFIG_CHECK_HH
