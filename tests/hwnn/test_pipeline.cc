/**
 * @file
 * Tests for the three-stage hardware network: functional fidelity
 * against the software MLP, and the Section IV-A timing behaviour.
 */

#include <gtest/gtest.h>

#include <span>

#include "hwnn/pipeline.hh"
#include "nn/trainer.hh"

namespace act
{
namespace
{

HwNetworkConfig
defaultHw()
{
    HwNetworkConfig config;
    config.neuron.max_inputs = 10;
    config.neuron.muladd_units = 2;
    config.fifo_entries = 8;
    return config;
}

TEST(HwNeuralNetwork, ServiceTimes)
{
    const HwNetworkConfig config = defaultHw();
    // T = ceil(10/2) + 2 = 7; training takes 4T.
    EXPECT_EQ(config.testServiceTime(), 7u);
    EXPECT_EQ(config.trainServiceTime(), 28u);
}

TEST(HwNeuralNetwork, WeightRoundTripThroughRegisters)
{
    Rng rng(3);
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());
    const auto back = hw.storeWeights();
    ASSERT_EQ(back.size(), soft.weights().size());
    for (std::size_t i = 0; i < back.size(); ++i)
        EXPECT_NEAR(back[i], soft.weights()[i], 1e-4) << i;
}

TEST(HwNeuralNetwork, WeightAtMatchesFlatLayout)
{
    HwNeuralNetwork hw(defaultHw(), Topology{3, 2});
    std::vector<double> weights(hw.weightCount());
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.01 * static_cast<double>(i);
    hw.loadWeights(weights);
    for (std::size_t i = 0; i < weights.size(); ++i)
        EXPECT_NEAR(hw.weightAt(i), weights[i], 1e-4) << i;
    hw.setWeightAt(2, -0.5);
    EXPECT_NEAR(hw.weightAt(2), -0.5, 1e-4);
}

/** Fidelity sweep: fixed-point inference agrees with the software MLP. */
class HwFidelity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HwFidelity, AgreesWithSoftwareNetwork)
{
    Rng rng(GetParam());
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());

    Rng inputs(GetParam() * 7 + 1);
    int disagreements = 0;
    const int trials = 500;
    for (int i = 0; i < trials; ++i) {
        std::vector<double> in;
        for (int j = 0; j < 6; ++j)
            in.push_back(inputs.uniform(-2, 2));
        const double exact = soft.infer(in);
        EXPECT_NEAR(hw.infer(in), exact, 0.05);
        // Classification may only flip inside the quantisation band
        // around the 0.5 threshold.
        if (std::abs(exact - 0.5) > 0.02 &&
            (hw.infer(in) >= 0.5) != soft.predictValid(in)) {
            ++disagreements;
        }
    }
    EXPECT_EQ(disagreements, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwFidelity,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(HwNeuralNetwork, RawOutputSignMatchesClassification)
{
    Rng rng(17);
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());
    Rng inputs(18);
    for (int i = 0; i < 300; ++i) {
        std::vector<double> in;
        for (int j = 0; j < 6; ++j)
            in.push_back(inputs.uniform(-2, 2));
        const double raw = hw.rawOutput(in);
        const double out = hw.infer(in);
        if (std::abs(out - 0.5) > 0.02) {
            EXPECT_EQ(raw >= 0.0, out >= 0.5) << "raw=" << raw;
        }
    }
}

TEST(HwNeuralNetwork, RawOutputPreservesDynamicRange)
{
    // Two inputs that both saturate the sigmoid to ~0 must still be
    // distinguishable by the raw accumulator (the ranking tie-break).
    HwNeuralNetwork hw(defaultHw(), Topology{1, 1});
    std::vector<double> weights(hw.weightCount(), 0.0);
    weights[1] = 2.0;   // hidden weight
    weights[2] = -10.0; // output bias: deep in the invalid region
    weights[3] = 30.0;  // output weight: raw tracks the hidden neuron
    hw.loadWeights(weights);
    const std::vector<double> a{-1.0};
    const std::vector<double> b{-2.0};
    EXPECT_LT(hw.infer(a), 0.01);
    EXPECT_LT(hw.infer(b), 0.01);
    EXPECT_NE(hw.rawOutput(a), hw.rawOutput(b));
}

TEST(HwNeuralNetwork, TrainingMovesTowardTarget)
{
    Rng rng(9);
    MlpNetwork proto(Topology{4, 6}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{4, 6});
    hw.loadWeights(proto.weights());
    const std::vector<double> in{0.5, -0.5, 1.0, -1.0};
    const double before = hw.infer(in);
    for (int i = 0; i < 20; ++i)
        hw.train(in, 1.0, 0.2);
    EXPECT_GT(hw.infer(in), before);
}

TEST(HwNeuralNetwork, TimingAcceptsAtLineRateWhenIdle)
{
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    // An empty FIFO accepts back-to-back offers.
    EXPECT_TRUE(hw.offer(10, false).accepted);
    EXPECT_TRUE(hw.offer(11, false).accepted);
    EXPECT_EQ(hw.acceptedCount(), 2u);
}

TEST(HwNeuralNetwork, FifoFillsAndBackpressures)
{
    HwNetworkConfig config = defaultHw();
    config.fifo_entries = 4;
    HwNeuralNetwork hw(config, Topology{6, 10});
    // All offers at cycle 0: the pipe drains one per T = 7 cycles.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(hw.offer(0, false).accepted) << i;
    const AcceptResult rejected = hw.offer(0, false);
    EXPECT_FALSE(rejected.accepted);
    // The oldest input completes at 1 + 7 (S1 insert + service).
    EXPECT_EQ(rejected.retry_at, 8u);
    EXPECT_EQ(hw.rejectedCount(), 1u);
    // Retrying at the advertised cycle succeeds.
    EXPECT_TRUE(hw.offer(rejected.retry_at, false).accepted);
}

TEST(HwNeuralNetwork, SteadyStateThroughputIsServiceTime)
{
    HwNetworkConfig config = defaultHw();
    config.fifo_entries = 2;
    HwNeuralNetwork hw(config, Topology{6, 10});
    ASSERT_TRUE(hw.offer(0, false).accepted);
    ASSERT_TRUE(hw.offer(0, false).accepted);
    // From now on, one slot frees every 7 cycles.
    Cycle now = 0;
    std::vector<Cycle> accept_times;
    for (int i = 0; i < 5; ++i) {
        AcceptResult r = hw.offer(now, false);
        while (!r.accepted) {
            now = r.retry_at;
            r = hw.offer(now, false);
        }
        accept_times.push_back(now);
    }
    for (std::size_t i = 1; i < accept_times.size(); ++i)
        EXPECT_EQ(accept_times[i] - accept_times[i - 1], 7u);
}

TEST(HwNeuralNetwork, TrainingModeQuadruplesOccupancyTime)
{
    HwNetworkConfig config = defaultHw();
    config.fifo_entries = 1;
    HwNeuralNetwork test_net(config, Topology{6, 10});
    HwNeuralNetwork train_net(config, Topology{6, 10});
    ASSERT_TRUE(test_net.offer(0, false).accepted);
    ASSERT_TRUE(train_net.offer(0, true).accepted);
    const AcceptResult test_reject = test_net.offer(0, false);
    const AcceptResult train_reject = train_net.offer(0, true);
    ASSERT_FALSE(test_reject.accepted);
    ASSERT_FALSE(train_reject.accepted);
    EXPECT_EQ(test_reject.retry_at, 1u + 7u);
    EXPECT_EQ(train_reject.retry_at, 1u + 28u);
}

TEST(HwNeuralNetwork, FlushEmptiesFifo)
{
    HwNetworkConfig config = defaultHw();
    config.fifo_entries = 2;
    HwNeuralNetwork hw(config, Topology{6, 10});
    ASSERT_TRUE(hw.offer(0, false).accepted);
    ASSERT_TRUE(hw.offer(0, false).accepted);
    EXPECT_EQ(hw.occupancy(0), 2u);
    hw.flush();
    EXPECT_EQ(hw.occupancy(0), 0u);
    EXPECT_TRUE(hw.offer(0, false).accepted);
}

TEST(HwNeuralNetwork, OccupancyDrainsOverTime)
{
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    ASSERT_TRUE(hw.offer(0, false).accepted);
    EXPECT_EQ(hw.occupancy(0), 1u);
    EXPECT_EQ(hw.occupancy(100), 0u);
}

TEST(HwNeuralNetwork, SetTopologyZeroesWeights)
{
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    std::vector<double> weights(hw.weightCount(), 0.5);
    hw.loadWeights(weights);
    hw.setTopology(Topology{4, 4});
    EXPECT_EQ(hw.weightCount(), 4u * 5u + 5u);
    const std::vector<double> in{0.1, 0.2, 0.3, 0.4};
    EXPECT_NEAR(hw.infer(in), 0.5, 0.01); // all-zero network
}

TEST(HwNeuralNetwork, InferBatchFlatIsBitIdenticalToScalarInference)
{
    Rng rng(9);
    MlpNetwork soft(Topology{6, 10}, rng);
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    hw.loadWeights(soft.weights());

    constexpr std::size_t kWidth = 6;
    constexpr std::size_t kCount = 57;
    Rng inputs(123);
    std::vector<double> flat;
    for (std::size_t i = 0; i < kWidth * kCount; ++i)
        flat.push_back(inputs.uniform(-2, 2));

    std::vector<double> outputs;
    hw.inferBatchFlat(flat, kWidth, kCount, outputs);
    ASSERT_EQ(outputs.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        const std::span<const double> row =
            std::span<const double>(flat).subspan(i * kWidth, kWidth);
        // Exact equality: the batched path must reuse the scalar
        // fixed-point pipeline verbatim (the fleet's streaming-vs-batch
        // byte-equivalence depends on it).
        EXPECT_EQ(outputs[i], hw.infer(row)) << i;
    }
}

TEST(HwNeuralNetwork, InferBatchFlatHandlesEmptyBatch)
{
    HwNeuralNetwork hw(defaultHw(), Topology{6, 10});
    std::vector<double> outputs{1.0, 2.0};
    hw.inferBatchFlat({}, 6, 0, outputs);
    EXPECT_TRUE(outputs.empty());
}

} // namespace
} // namespace act
