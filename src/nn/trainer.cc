#include "nn/trainer.hh"

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace act
{

namespace
{

double
errorOn(const MlpNetwork &network, const Dataset &data,
        bool positives, bool negatives)
{
    std::size_t considered = 0;
    std::size_t wrong = 0;
    for (const auto &example : data.examples()) {
        const bool is_positive = example.positive();
        if ((is_positive && !positives) || (!is_positive && !negatives))
            continue;
        ++considered;
        if (network.predictValid(example.inputs) != is_positive)
            ++wrong;
    }
    if (considered == 0)
        return 0.0;
    return static_cast<double>(wrong) / static_cast<double>(considered);
}

} // namespace

TrainResult
trainNetwork(MlpNetwork &network, const Dataset &data,
             const TrainerConfig &config, Rng &rng)
{
    TrainResult result;
    if (data.empty())
        return result;

    // One row-major copy of the inputs: an epoch then reads contiguous
    // rows instead of one heap block per example, and shuffles indices
    // instead of examples.
    const std::size_t count = data.size();
    const std::size_t width = data.inputWidth();
    std::vector<double> rows;
    rows.reserve(count * width);
    std::vector<double> labels;
    labels.reserve(count);
    for (const Example &example : data.examples()) {
        ACT_ASSERT(example.inputs.size() == width);
        rows.insert(rows.end(), example.inputs.begin(),
                    example.inputs.end());
        labels.push_back(example.label);
    }
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});

    double best_error = 1.0;
    std::size_t stale_epochs = 0;

    for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
        // Dataset::shuffle's swaps, applied to the running order.
        for (std::size_t i = count; i > 1; --i)
            std::swap(order[i - 1], order[rng.next(i)]);

        std::size_t wrong = 0;
        for (const std::size_t e : order) {
            const double label = labels[e];
            const double out = network.train(
                std::span<const double>(rows.data() + e * width, width),
                label, config.learning_rate);
            if ((out >= 0.5) != (label >= 0.5)) // Example::positive()
                ++wrong;
        }
        result.epochs = epoch + 1;
        result.final_error =
            static_cast<double>(wrong) / static_cast<double>(count);

        if (result.final_error <= config.target_error) {
            result.converged = true;
            break;
        }
        if (result.final_error + 1e-12 < best_error) {
            best_error = result.final_error;
            stale_epochs = 0;
        } else if (++stale_epochs >= config.patience) {
            break;
        }
    }
    return result;
}

double
evaluateNetwork(const MlpNetwork &network, const Dataset &data)
{
    return errorOn(network, data, true, true);
}

double
evaluateFalseInvalidRate(const MlpNetwork &network, const Dataset &data)
{
    return errorOn(network, data, true, false);
}

double
evaluateFalseValidRate(const MlpNetwork &network, const Dataset &data)
{
    return errorOn(network, data, false, true);
}

} // namespace act
