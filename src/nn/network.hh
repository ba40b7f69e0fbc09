/**
 * @file
 * One-hidden-layer sigmoid multilayer perceptron.
 *
 * This is the software twin of the partially configurable hardware
 * network of Section IV-A: a topology i x h x 1 with i inputs
 * (1 <= i <= M), h hidden neurons (1 <= h <= M) and a single output
 * neuron. Learning is plain stochastic back-propagation (Section II-A)
 * with the update rule the paper quotes:
 *     err = o * (1 - o) * (t - o)        (sigmoid units)
 *     W_j <- W_j + eta * err * a_j
 * The flat weight vector layout matches the hardware weight-register
 * file accessed by the ldwt/stwt instructions, so software-trained
 * weights can be loaded into the hardware model verbatim.
 */

#ifndef ACT_NN_NETWORK_HH
#define ACT_NN_NETWORK_HH

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hh"

namespace act
{

/** Maximum inputs / hidden neurons supported by the AM hardware. */
inline constexpr std::size_t kMaxFanIn = 10;

/** Logistic sigmoid. */
double sigmoid(double x);

/** Network shape: inputs x hidden x 1. */
struct Topology
{
    std::size_t inputs = 3;
    std::size_t hidden = 5;

    bool
    valid() const
    {
        return inputs >= 1 && inputs <= kMaxFanIn && hidden >= 1 &&
               hidden <= kMaxFanIn;
    }

    bool operator==(const Topology &) const = default;
};

/**
 * The MLP itself.
 *
 * Weight indexing (the "weight register file"):
 *   hidden neuron k (0-based) occupies slots
 *       [k*(inputs+1), (k+1)*(inputs+1)) as [bias, w_1 .. w_inputs];
 *   the output neuron follows with [bias, w_1 .. w_hidden].
 */
class MlpNetwork
{
  public:
    /** Build with small random weights from @p rng. */
    MlpNetwork(Topology topology, Rng &rng);

    /** Build with all-zero weights (the "default weights" of §IV-C). */
    explicit MlpNetwork(Topology topology);

    const Topology &topology() const { return topology_; }

    /** Total number of weight registers used. */
    std::size_t weightCount() const { return weights_.size(); }

    /**
     * Forward pass.
     *
     * @param inputs Exactly topology().inputs values.
     * @return Output neuron activation in (0, 1).
     */
    double infer(std::span<const double> inputs) const;

    /** Classify: true = the dependence sequence is predicted valid. */
    bool predictValid(std::span<const double> inputs) const
    {
        return infer(inputs) >= 0.5;
    }

    /**
     * One online back-propagation step.
     *
     * @param inputs Example inputs.
     * @param target Desired output (1 valid, 0 invalid).
     * @param learning_rate Step size (the paper uses 0.2).
     * @return Output before the update.
     */
    double train(std::span<const double> inputs, double target,
                 double learning_rate);

    /** Read the flat weight vector (ldwt view). */
    const std::vector<double> &weights() const { return weights_; }

    /** Replace the flat weight vector (stwt view). */
    void setWeights(std::vector<double> weights);

    /** Read a single weight register. @pre index < weightCount(). */
    double weightAt(std::size_t index) const;

    /** Write a single weight register. @pre index < weightCount(). */
    void setWeightAt(std::size_t index, double value);

  private:
    /**
     * One value per hidden neuron, on the stack: only the first
     * topology().hidden entries are used.
     */
    using HiddenValues = std::array<double, kMaxFanIn>;

    /** Compute hidden activations into @p hidden, return output. */
    double forward(std::span<const double> inputs,
                   HiddenValues &hidden) const;

    std::size_t hiddenBase(std::size_t k) const
    {
        return k * (topology_.inputs + 1);
    }

    std::size_t outputBase() const
    {
        return topology_.hidden * (topology_.inputs + 1);
    }

    Topology topology_;
    std::vector<double> weights_;
};

} // namespace act

#endif // ACT_NN_NETWORK_HH
