#include "hwnn/pipeline.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "telemetry/spans.hh"

namespace act
{

namespace
{

/**
 * Neuron::weightedSum over a packed register row: bias then one
 * saturating multiply-add per input, in exactly the reference order
 * (fixed-point truncation makes the order observable).
 */
HwFixed
weightedSumRow(const HwFixed *w, const HwFixed *inputs, std::size_t n)
{
    HwFixed acc = w[0]; // bias, a_0 == 1
    for (std::size_t j = 0; j < n; ++j)
        acc = acc + w[j + 1] * inputs[j];
    return acc;
}

/**
 * weightedSumRow without the saturation clamps, in plain int64. Equal
 * to it bit for bit whenever no product or partial sum leaves the
 * int32 range, which the caller establishes with exactInputBound().
 */
HwFixed
exactSumRow(const HwFixed *w, const HwFixed *inputs, std::size_t n)
{
    std::int64_t acc = w[0].raw();
    for (std::size_t j = 0; j < n; ++j) {
        acc += (std::int64_t{w[j + 1].raw()} * inputs[j].raw()) >>
               HwFixed::kFracBits;
    }
    return HwFixed::fromRaw(static_cast<HwFixed::Raw>(acc));
}

/**
 * Largest input magnitude X (raw units) at which weightedSumRow over
 * @p w cannot saturate; -1 when even X = 0 is not covered.
 *
 * With Q = 2^kFracBits, each product term is floor(w * x / Q), whose
 * magnitude is at most |w| * |x| / Q + 1. So while every |x_j| <= X,
 * every product and every partial sum is at most
 *     |b| + sum_j |w_j| * X / Q + n,
 * and when that is <= INT32_MAX neither clamp can fire.
 */
std::int64_t
exactInputBound(const HwFixed *w, std::size_t n)
{
    std::int64_t weight_sum = 0;
    for (std::size_t j = 0; j < n; ++j)
        weight_sum += std::abs(std::int64_t{w[j + 1].raw()});
    const std::int64_t slack = std::numeric_limits<HwFixed::Raw>::max() -
                               std::abs(std::int64_t{w[0].raw()}) -
                               static_cast<std::int64_t>(n);
    if (slack < 0)
        return -1;
    if (weight_sum == 0)
        return std::numeric_limits<std::int64_t>::max();
    return (slack << HwFixed::kFracBits) / weight_sum;
}

/** Neuron::applyUpdate over a packed register row. */
void
applyUpdateRow(HwFixed *w, HwFixed delta, const HwFixed *inputs,
               std::size_t n)
{
    w[0] = w[0] + delta;
    for (std::size_t j = 0; j < n; ++j)
        w[j + 1] = w[j + 1] + delta * inputs[j];
}

} // namespace

HwNeuralNetwork::HwNeuralNetwork(const HwNetworkConfig &config,
                                 Topology topology)
    : config_(config), topology_(topology), sigmoid_(),
      reg_stride_(config.neuron.max_inputs + 1),
      in_flight_(std::max<std::uint32_t>(config.fifo_entries, 1)),
      test_service_(config.testServiceTime()),
      train_service_(config.trainServiceTime())
{
    ACT_ASSERT(config_.neuron.max_inputs >= 1);
    ACT_ASSERT(config_.neuron.muladd_units >= 1 &&
               config_.neuron.muladd_units <= config_.neuron.max_inputs);
    ACT_ASSERT(topology_.valid());
    ACT_ASSERT(topology_.inputs <= config_.neuron.max_inputs);
    ACT_ASSERT(topology_.hidden <= config_.neuron.max_inputs);
    hidden_w_.assign(config_.neuron.max_inputs * reg_stride_, HwFixed{});
    output_w_.assign(reg_stride_, HwFixed{});
    updateSaturationBound();
}

std::size_t
HwNeuralNetwork::weightCount() const
{
    return topology_.hidden * (topology_.inputs + 1) +
           (topology_.hidden + 1);
}

HwFixed
HwNeuralNetwork::forward(std::span<const double> inputs,
                         Activations &act) const
{
    ACT_ASSERT(inputs.size() == topology_.inputs);
    const std::size_t n = topology_.inputs;
    std::int64_t largest = 0;
    for (std::size_t j = 0; j < n; ++j) {
        act.inputs[j] = HwFixed::fromDouble(inputs[j]);
        largest = std::max(largest,
                           std::abs(std::int64_t{act.inputs[j].raw()}));
    }
    const bool exact = largest <= exact_input_bound_;
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        const HwFixed *row = hiddenRow(k);
        act.hidden[k] = sigmoid_.lookup(
            exact ? exactSumRow(row, act.inputs.data(), n)
                  : weightedSumRow(row, act.inputs.data(), n));
    }
    return output_exact_
               ? exactSumRow(output_w_.data(), act.hidden.data(),
                             topology_.hidden)
               : weightedSumRow(output_w_.data(), act.hidden.data(),
                                topology_.hidden);
}

void
HwNeuralNetwork::updateSaturationBound()
{
    ++version_;
    exact_input_bound_ = std::numeric_limits<std::int64_t>::max();
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        exact_input_bound_ =
            std::min(exact_input_bound_,
                     exactInputBound(hiddenRow(k), topology_.inputs));
    }
    // Hidden activations are sigmoid table values in [0, 1].
    output_exact_ = exactInputBound(output_w_.data(), topology_.hidden) >=
                    std::int64_t{1} << HwFixed::kFracBits;
}

double
HwNeuralNetwork::infer(std::span<const double> inputs) const
{
    Activations act;
    return sigmoid_.lookup(forward(inputs, act)).toDouble();
}

void
HwNeuralNetwork::inferBatchFlat(std::span<const double> flat,
                                std::size_t width, std::size_t count,
                                std::vector<double> &outputs) const
{
    ACT_ASSERT(flat.size() == width * count);
    telemetry::ScopedSpan span("nn.infer_batch", "nn");
    span.annotate(
        telemetry::arg("batch", static_cast<std::uint64_t>(count)));
    outputs.clear();
    outputs.reserve(count);
    Activations act;
    for (std::size_t i = 0; i < count; ++i) {
        outputs.push_back(
            sigmoid_.lookup(forward(flat.subspan(i * width, width), act))
                .toDouble());
    }
}

double
HwNeuralNetwork::inferWithRaw(std::span<const double> inputs,
                              double &raw) const
{
    Activations act;
    const HwFixed acc = forward(inputs, act);
    raw = acc.toDouble();
    return sigmoid_.lookup(acc).toDouble();
}

double
HwNeuralNetwork::train(std::span<const double> inputs, double target,
                       double learning_rate)
{
    Activations act;
    const HwFixed out = sigmoid_.lookup(forward(inputs, act));

    // Output delta: o * (1 - o) * (t - o), scaled by the learning rate.
    const HwFixed one = HwFixed::fromDouble(1.0);
    const HwFixed t = HwFixed::fromDouble(target);
    const HwFixed out_err = out * (one - out) * (t - out);
    const HwFixed lr = HwFixed::fromDouble(learning_rate);

    // Hidden deltas use the output weights *before* the update.
    std::array<HwFixed, kMaxFanIn> hidden_delta;
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        const HwFixed back = output_w_[k + 1] * out_err;
        hidden_delta[k] =
            act.hidden[k] * (one - act.hidden[k]) * back * lr;
    }

    applyUpdateRow(output_w_.data(), lr * out_err, act.hidden.data(),
                   topology_.hidden);
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        applyUpdateRow(hiddenRow(k), hidden_delta[k], act.inputs.data(),
                       topology_.inputs);
    }
    updateSaturationBound();

    return out.toDouble();
}

void
HwNeuralNetwork::loadWeights(std::span<const double> weights)
{
    ACT_ASSERT(weights.size() == weightCount());
    const std::size_t stride = topology_.inputs + 1;
    // Registers beyond a neuron's loaded weights are zeroed — that is
    // how the hardware disables surplus inputs, and it keeps stale
    // values from leaking into a later topology change.
    std::fill(hidden_w_.begin(), hidden_w_.end(), HwFixed{});
    std::fill(output_w_.begin(), output_w_.end(), HwFixed{});
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        HwFixed *row = hiddenRow(k);
        for (std::size_t j = 0; j < stride; ++j)
            row[j] = HwFixed::fromDouble(weights[k * stride + j]);
    }
    const std::size_t out_base = topology_.hidden * stride;
    for (std::size_t j = 0; j < topology_.hidden + 1; ++j)
        output_w_[j] = HwFixed::fromDouble(weights[out_base + j]);
    updateSaturationBound();
}

std::vector<double>
HwNeuralNetwork::storeWeights() const
{
    std::vector<double> out;
    out.reserve(weightCount());
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        const HwFixed *row = hiddenRow(k);
        for (std::size_t j = 0; j < topology_.inputs + 1; ++j)
            out.push_back(row[j].toDouble());
    }
    for (std::size_t j = 0; j < topology_.hidden + 1; ++j)
        out.push_back(output_w_[j].toDouble());
    return out;
}

double
HwNeuralNetwork::weightAt(std::size_t index) const
{
    ACT_ASSERT(index < weightCount());
    const std::size_t stride = topology_.inputs + 1;
    const std::size_t hidden_span = topology_.hidden * stride;
    if (index < hidden_span)
        return hiddenRow(index / stride)[index % stride].toDouble();
    return output_w_[index - hidden_span].toDouble();
}

void
HwNeuralNetwork::setWeightAt(std::size_t index, double value)
{
    ACT_ASSERT(index < weightCount());
    const std::size_t stride = topology_.inputs + 1;
    const std::size_t hidden_span = topology_.hidden * stride;
    if (index < hidden_span) {
        hiddenRow(index / stride)[index % stride] =
            HwFixed::fromDouble(value);
    } else {
        output_w_[index - hidden_span] = HwFixed::fromDouble(value);
    }
    updateSaturationBound();
}

void
HwNeuralNetwork::drain(Cycle now) const
{
    while (fifo_count_ != 0 && in_flight_[fifo_head_] <= now) {
        if (++fifo_head_ == in_flight_.size())
            fifo_head_ = 0;
        --fifo_count_;
    }
}

AcceptResult
HwNeuralNetwork::offer(Cycle now, bool training)
{
    drain(now);
    if (fifo_count_ >= config_.fifo_entries) {
        ++rejected_;
        return AcceptResult{false, in_flight_[fifo_head_]};
    }
    const Cycle service = training ? train_service_ : test_service_;
    // S1 (FIFO insert) takes one cycle; service begins when the
    // previous input vacates the compute stages.
    const Cycle start = std::max(now + 1, last_completion_);
    last_completion_ = start + service;
    std::size_t tail = fifo_head_ + fifo_count_;
    if (tail >= in_flight_.size())
        tail -= in_flight_.size();
    in_flight_[tail] = last_completion_;
    ++fifo_count_;
    ++accepted_;
    return AcceptResult{true, 0};
}

std::size_t
HwNeuralNetwork::occupancy(Cycle now) const
{
    drain(now);
    return fifo_count_;
}

Cycle
HwNeuralNetwork::drainCycle() const
{
    return last_completion_;
}

void
HwNeuralNetwork::flush()
{
    fifo_head_ = 0;
    fifo_count_ = 0;
}

} // namespace act
