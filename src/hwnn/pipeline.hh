/**
 * @file
 * The three-stage partially configurable hardware network (Figure 6(a)).
 *
 * Stage S1 is the input FIFO; stage S2 is a bank of M hidden neurons
 * evaluated in parallel; stage S3 is the single output neuron. S1 takes
 * one cycle; S2 and S3 each take the neuron latency T. During online
 * testing the stages are pipelined, so with a full FIFO the network
 * accepts one input every T cycles. During online training the network
 * must finish back-propagation before accepting the next input, giving
 * one input every 4T cycles (Section IV-A).
 *
 * Functional behaviour is fixed point (Q15.16 with a sigmoid table),
 * with a flat weight-register file compatible with MlpNetwork so that
 * software-trained weights load verbatim via stwt.
 */

#ifndef ACT_HWNN_PIPELINE_HH
#define ACT_HWNN_PIPELINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hwnn/neuron.hh"
#include "nn/network.hh"

namespace act
{

/** Whole-network hardware configuration. */
struct HwNetworkConfig
{
    NeuronConfig neuron;
    std::uint32_t fifo_entries = 8; //!< Input FIFO size {4, 8, 16}.

    /** Cycles between accepted inputs in testing mode. */
    Cycle testServiceTime() const { return neuron.latency(); }

    /** Cycles between accepted inputs in training mode. */
    Cycle trainServiceTime() const { return 4 * neuron.latency(); }
};

/** Result of offering an input to the pipeline at a given cycle. */
struct AcceptResult
{
    bool accepted = false;
    /** When rejected: first cycle at which a retry can succeed. */
    Cycle retry_at = 0;
};

/**
 * Functional + timing model of the AM's neural network.
 *
 * The const inference entry points keep every per-pass value on the
 * stack, so several threads may run them on one network at once.
 */
class HwNeuralNetwork
{
  public:
    /**
     * @param config   Hardware parameters.
     * @param topology Logical topology (inputs/hidden <= M).
     */
    HwNeuralNetwork(const HwNetworkConfig &config, Topology topology);

    const HwNetworkConfig &config() const { return config_; }
    const Topology &topology() const { return topology_; }

    // --- Functional interface -------------------------------------

    /** Forward pass; output activation in (0, 1). */
    double infer(std::span<const double> inputs) const;

    /**
     * Evaluate a whole queue of input vectors in one pass — the
     * per-drain batch path: instead of touching the weight file once
     * per load, the drain walks every queued sequence against the
     * weights while they are hot. @p flat holds @p count input vectors
     * of @p width doubles each, packed back to back — the layout the
     * fleet batcher accumulates into, sparing one heap vector per
     * staged sequence. Bit-identical to calling infer() on
     * each element in order (the forward pass is pure), appending one
     * output per element to @p outputs (cleared first).
     */
    void inferBatchFlat(std::span<const double> flat, std::size_t width,
                        std::size_t count,
                        std::vector<double> &outputs) const;

    /**
     * One forward pass yielding both the activation (returned,
     * bit-identical to infer()) and the output neuron's pre-sigmoid
     * accumulator (@p raw). The sigmoid saturates for confident
     * predictions, so the Debug Buffer records the raw value instead:
     * it preserves the dynamic range the ranking tie-break ("the most
     * negative output first") needs.
     */
    double inferWithRaw(std::span<const double> inputs, double &raw) const;

    /** One fixed-point back-propagation step; returns prior output. */
    double train(std::span<const double> inputs, double target,
                 double learning_rate);

    /** Load a flat MlpNetwork-layout weight vector (stwt loop). */
    void loadWeights(std::span<const double> weights);

    /** Read back the (quantised) flat weight vector (ldwt loop). */
    std::vector<double> storeWeights() const;

    /** Number of addressable weight registers for this topology. */
    std::size_t weightCount() const;

    /** Read / write one weight register by flat index. */
    double weightAt(std::size_t index) const;
    void setWeightAt(std::size_t index, double value);

    /**
     * Version of the weight registers: it rises with every register
     * write (construction, loadWeights, setWeightAt, train) and with
     * nothing else, so an inference result computed under one version
     * stays exact for as long as the version reads the same.
     */
    std::uint64_t version() const { return version_; }

    // --- Timing interface -----------------------------------------

    /**
     * Offer an input at @p now.
     *
     * @param now      Current cycle.
     * @param training Whether the AM is in online-training mode.
     * @return Whether the FIFO accepted the input; when it did not,
     *         retry_at tells the caller (a stalled load at the ROB
     *         head) when space frees up.
     */
    AcceptResult offer(Cycle now, bool training);

    /** Inputs currently queued or in flight at @p now. */
    std::size_t occupancy(Cycle now) const;

    /** Cycle at which the last accepted input finishes processing. */
    Cycle drainCycle() const;

    /** Drop all in-flight inputs (context switch flush, §IV-D). */
    void flush();

    /** Total inputs ever accepted. */
    std::uint64_t acceptedCount() const { return accepted_; }

    /** Total offers that were rejected (load retire stalls). */
    std::uint64_t rejectedCount() const { return rejected_; }

  private:
    /** Quantised inputs and hidden activations of one forward pass. */
    struct Activations
    {
        std::array<HwFixed, kMaxFanIn> inputs;
        std::array<HwFixed, kMaxFanIn> hidden;
    };

    void drain(Cycle now) const;

    /**
     * The forward pass behind every inference and training step:
     * quantise @p inputs and evaluate the hidden bank into @p act,
     * then return the output neuron's pre-sigmoid accumulator.
     */
    HwFixed forward(std::span<const double> inputs, Activations &act) const;

    /**
     * Recompute the saturation bound and bump the register version;
     * call whenever registers change.
     */
    void updateSaturationBound();

    /** Weight registers of hidden neuron @p k ([bias, w_1 .. w_M]). */
    HwFixed *hiddenRow(std::size_t k) { return &hidden_w_[k * reg_stride_]; }
    const HwFixed *
    hiddenRow(std::size_t k) const
    {
        return &hidden_w_[k * reg_stride_];
    }

    HwNetworkConfig config_;
    Topology topology_;
    SigmoidTable sigmoid_;

    /**
     * Flat weight-register file, replacing per-Neuron objects on the
     * inference path: M hidden rows of (M + 1) registers each, then the
     * output row. The row-major packing walks exactly the access
     * pattern of the forward pass, and the arithmetic replicates
     * Neuron::weightedSum's accumulation order bit for bit (the Neuron
     * class remains the single-neuron reference model).
     */
    std::size_t reg_stride_;         //!< Registers per neuron (M + 1).
    std::vector<HwFixed> hidden_w_;  //!< M x reg_stride_, row-major.
    std::vector<HwFixed> output_w_;  //!< reg_stride_ registers.

    /**
     * Saturation bound: the largest quantised input magnitude (raw
     * units) at which no product or partial sum of any hidden neuron
     * can leave the int32 range. An inference whose inputs all lie
     * within it sums the hidden bank in plain int64 (bit-identical to
     * the saturating sum); any other takes the saturating loop.
     */
    std::int64_t exact_input_bound_ = 0;
    /** Whether the output neuron's sum cannot saturate on any hidden
     *  activations (table values in [0, 1]). */
    bool output_exact_ = false;

    /** Register version (see version()); 0 before construction ends. */
    std::uint64_t version_ = 0;

    /**
     * Completion cycles of queued inputs: a ring of fifo_entries slots
     * (one when fifo_entries is 0), the oldest at fifo_head_.
     */
    mutable std::vector<Cycle> in_flight_;
    mutable std::size_t fifo_head_ = 0;
    mutable std::size_t fifo_count_ = 0;
    Cycle last_completion_ = 0;
    Cycle test_service_ = 0;  //!< config_.testServiceTime().
    Cycle train_service_ = 0; //!< config_.trainServiceTime().

    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
};

} // namespace act

#endif // ACT_HWNN_PIPELINE_HH
