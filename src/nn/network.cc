#include "nn/network.hh"

#include <cmath>

#include "common/logging.hh"

namespace act
{

double
sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

MlpNetwork::MlpNetwork(Topology topology, Rng &rng)
    : topology_(topology)
{
    ACT_ASSERT(topology_.valid());
    const std::size_t count =
        topology_.hidden * (topology_.inputs + 1) + (topology_.hidden + 1);
    weights_.resize(count);
    for (auto &w : weights_)
        w = rng.uniform(-0.5, 0.5);
}

MlpNetwork::MlpNetwork(Topology topology)
    : topology_(topology)
{
    ACT_ASSERT(topology_.valid());
    const std::size_t count =
        topology_.hidden * (topology_.inputs + 1) + (topology_.hidden + 1);
    weights_.assign(count, 0.0);
}

double
MlpNetwork::forward(std::span<const double> inputs,
                    HiddenValues &hidden) const
{
    ACT_ASSERT(inputs.size() == topology_.inputs);
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        const std::size_t base = hiddenBase(k);
        double acc = weights_[base]; // bias (input a_0 == 1)
        for (std::size_t j = 0; j < topology_.inputs; ++j)
            acc += weights_[base + 1 + j] * inputs[j];
        hidden[k] = sigmoid(acc);
    }
    const std::size_t base = outputBase();
    double acc = weights_[base];
    for (std::size_t k = 0; k < topology_.hidden; ++k)
        acc += weights_[base + 1 + k] * hidden[k];
    return sigmoid(acc);
}

double
MlpNetwork::infer(std::span<const double> inputs) const
{
    HiddenValues hidden{};
    return forward(inputs, hidden);
}

double
MlpNetwork::train(std::span<const double> inputs, double target,
                  double learning_rate)
{
    HiddenValues hidden{};
    const double out = forward(inputs, hidden);

    // Output neuron delta (sigmoid error form from Section II-A).
    const double out_delta = out * (1.0 - out) * (target - out);

    // Propagate to hidden layer before touching the output weights.
    const std::size_t obase = outputBase();
    HiddenValues hidden_delta{};
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        const double back = weights_[obase + 1 + k] * out_delta;
        hidden_delta[k] = hidden[k] * (1.0 - hidden[k]) * back;
    }

    // Update output neuron weights.
    weights_[obase] += learning_rate * out_delta; // bias, a_0 == 1
    for (std::size_t k = 0; k < topology_.hidden; ++k)
        weights_[obase + 1 + k] += learning_rate * out_delta * hidden[k];

    // Update hidden neuron weights.
    for (std::size_t k = 0; k < topology_.hidden; ++k) {
        const std::size_t base = hiddenBase(k);
        weights_[base] += learning_rate * hidden_delta[k];
        for (std::size_t j = 0; j < topology_.inputs; ++j)
            weights_[base + 1 + j] +=
                learning_rate * hidden_delta[k] * inputs[j];
    }
    return out;
}

void
MlpNetwork::setWeights(std::vector<double> weights)
{
    ACT_ASSERT(weights.size() == weights_.size());
    weights_ = std::move(weights);
}

double
MlpNetwork::weightAt(std::size_t index) const
{
    ACT_ASSERT(index < weights_.size());
    return weights_[index];
}

void
MlpNetwork::setWeightAt(std::size_t index, double value)
{
    ACT_ASSERT(index < weights_.size());
    weights_[index] = value;
}

} // namespace act
