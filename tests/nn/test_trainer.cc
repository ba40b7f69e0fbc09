/**
 * @file
 * Tests for the offline trainer, the dataset container and the
 * evaluation helpers.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/hashing.hh"
#include "nn/trainer.hh"

namespace act
{
namespace
{

Dataset
linearlySeparable(std::size_t n, Rng &rng)
{
    // Positive iff x0 + x1 > 0, with a margin.
    Dataset data;
    while (data.size() < n) {
        const double x0 = rng.uniform(-2, 2);
        const double x1 = rng.uniform(-2, 2);
        const double margin = x0 + x1;
        if (std::abs(margin) < 0.2)
            continue;
        data.add(Example{{x0, x1}, margin > 0 ? 1.0 : 0.0});
    }
    return data;
}

TEST(Dataset, CountsAndWidth)
{
    Dataset data;
    data.add(Example{{1.0, 2.0}, 1.0});
    data.add(Example{{3.0, 4.0}, 0.0});
    data.add(Example{{5.0, 6.0}, 1.0});
    EXPECT_EQ(data.size(), 3u);
    EXPECT_EQ(data.positiveCount(), 2u);
    EXPECT_EQ(data.negativeCount(), 1u);
    EXPECT_EQ(data.inputWidth(), 2u);
}

TEST(Dataset, ShuffleKeepsMultiset)
{
    Rng rng(5);
    Dataset data;
    for (int i = 0; i < 50; ++i)
        data.add(Example{{static_cast<double>(i)}, 1.0});
    Dataset shuffled = data;
    shuffled.shuffle(rng);
    ASSERT_EQ(shuffled.size(), data.size());
    double sum = 0.0;
    bool moved = false;
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
        sum += shuffled[i].inputs[0];
        if (shuffled[i].inputs[0] != data[i].inputs[0])
            moved = true;
    }
    EXPECT_DOUBLE_EQ(sum, 49.0 * 50.0 / 2.0);
    EXPECT_TRUE(moved);
}

TEST(Dataset, SplitTail)
{
    Dataset data;
    for (int i = 0; i < 10; ++i)
        data.add(Example{{static_cast<double>(i)}, 1.0});
    const Dataset tail = data.splitTail(0.3);
    EXPECT_EQ(data.size(), 7u);
    EXPECT_EQ(tail.size(), 3u);
    EXPECT_DOUBLE_EQ(tail[0].inputs[0], 7.0);
}

TEST(Dataset, Merge)
{
    Dataset a;
    a.add(Example{{1.0}, 1.0});
    Dataset b;
    b.add(Example{{2.0}, 0.0});
    a.merge(b);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.negativeCount(), 1u);
}

TEST(Trainer, ConvergesOnSeparableData)
{
    Rng rng(11);
    const Dataset train = linearlySeparable(600, rng);
    MlpNetwork net(Topology{2, 4}, rng);
    TrainerConfig config;
    config.max_epochs = 200;
    config.target_error = 0.01;
    const TrainResult result = trainNetwork(net, train, config, rng);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.final_error, 0.01);

    Rng rng2(12);
    const Dataset test = linearlySeparable(400, rng2);
    EXPECT_LT(evaluateNetwork(net, test), 0.03);
}

TEST(Trainer, EmptyDatasetIsNoop)
{
    Rng rng(13);
    MlpNetwork net(Topology{2, 2}, rng);
    const auto before = net.weights();
    const TrainResult result =
        trainNetwork(net, Dataset{}, TrainerConfig{}, rng);
    EXPECT_EQ(result.epochs, 0u);
    EXPECT_EQ(net.weights(), before);
}

TEST(Trainer, PatienceStopsStaleTraining)
{
    // Random labels cannot be learned; patience must cut training
    // short of max_epochs.
    Rng rng(14);
    Dataset noise;
    for (int i = 0; i < 200; ++i) {
        noise.add(Example{{rng.uniform(-1, 1), rng.uniform(-1, 1)},
                          rng.chance(0.5) ? 1.0 : 0.0});
    }
    MlpNetwork net(Topology{2, 2}, rng);
    TrainerConfig config;
    config.max_epochs = 5000;
    config.patience = 10;
    config.target_error = 0.0;
    const TrainResult result = trainNetwork(net, noise, config, rng);
    EXPECT_LT(result.epochs, 5000u);
    EXPECT_FALSE(result.converged);
}

TEST(Trainer, GoldenRunOnTheDiagnosisTopology)
{
    // Pins the trainer bit for bit, not only run against run: a
    // reordered sum or a different visiting order changes the hash.
    // 6 x 10 is the diagnosis topology (3 dependences x 2 features).
    Rng rng(0x7ea1);
    Dataset data;
    for (int i = 0; i < 3000; ++i) {
        Example example;
        for (int j = 0; j < 6; ++j)
            example.inputs.push_back(rng.uniform(-2.0, 2.0));
        const std::vector<double> &x = example.inputs;
        const bool valid = x[0] * x[1] + x[2] - 0.5 * x[3] * x[4] > x[5];
        example.label = valid != rng.chance(0.05) ? 1.0 : 0.0;
        data.add(std::move(example));
    }
    MlpNetwork net(Topology{6, 10}, rng);
    TrainerConfig config;
    config.max_epochs = 30;
    const TrainResult result = trainNetwork(net, data, config, rng);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix_double = [&h](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = hashCombine(h, bits);
    };
    for (const double w : net.weights())
        mix_double(w);
    h = hashCombine(h, result.epochs);
    mix_double(result.final_error);
    EXPECT_EQ(result.epochs, 30u);
    EXPECT_EQ(h, 0x5bd68e060f046ea1ULL);
}

TEST(Trainer, EvaluateSplitsByClass)
{
    // A network biased to always answer "valid": false-invalid rate 0,
    // false-valid rate 1.
    MlpNetwork net(Topology{1, 1});
    net.setWeightAt(net.weightCount() - 2, 10.0); // output bias large
    Dataset data;
    data.add(Example{{0.5}, 1.0});
    data.add(Example{{0.5}, 0.0});
    EXPECT_DOUBLE_EQ(evaluateFalseInvalidRate(net, data), 0.0);
    EXPECT_DOUBLE_EQ(evaluateFalseValidRate(net, data), 1.0);
    EXPECT_DOUBLE_EQ(evaluateNetwork(net, data), 0.5);
}

} // namespace
} // namespace act
