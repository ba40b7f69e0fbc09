/**
 * @file
 * Tests for the one-hidden-layer MLP.
 */

#include <gtest/gtest.h>

#include "nn/network.hh"

namespace act
{
namespace
{

TEST(Sigmoid, KnownValues)
{
    EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
    EXPECT_NEAR(sigmoid(10.0), 1.0, 1e-4);
    EXPECT_NEAR(sigmoid(-10.0), 0.0, 1e-4);
    EXPECT_NEAR(sigmoid(1.0) + sigmoid(-1.0), 1.0, 1e-12);
}

TEST(Topology, Validity)
{
    EXPECT_TRUE((Topology{1, 1}).valid());
    EXPECT_TRUE((Topology{kMaxFanIn, kMaxFanIn}).valid());
    EXPECT_FALSE((Topology{0, 5}).valid());
    EXPECT_FALSE((Topology{5, 0}).valid());
    EXPECT_FALSE((Topology{kMaxFanIn + 1, 5}).valid());
    EXPECT_FALSE((Topology{5, kMaxFanIn + 1}).valid());
}

TEST(MlpNetwork, WeightCountMatchesLayout)
{
    Rng rng(1);
    const MlpNetwork net(Topology{3, 5}, rng);
    // 5 hidden neurons x (3 weights + bias) + output (5 weights + bias).
    EXPECT_EQ(net.weightCount(), 5u * 4u + 6u);
}

TEST(MlpNetwork, ZeroWeightsOutputHalf)
{
    const MlpNetwork net(Topology{4, 6});
    const std::vector<double> in{0.3, -0.7, 1.0, 0.0};
    EXPECT_DOUBLE_EQ(net.infer(in), 0.5);
    EXPECT_TRUE(net.predictValid(in)); // boundary counts as valid
}

TEST(MlpNetwork, OutputAlwaysInUnitInterval)
{
    Rng rng(2);
    const MlpNetwork net(Topology{2, 8}, rng);
    Rng inputs(3);
    for (int i = 0; i < 200; ++i) {
        const std::vector<double> in{inputs.uniform(-10, 10),
                                     inputs.uniform(-10, 10)};
        const double out = net.infer(in);
        EXPECT_GT(out, 0.0);
        EXPECT_LT(out, 1.0);
    }
}

TEST(MlpNetwork, TrainStepMovesOutputTowardTarget)
{
    Rng rng(4);
    MlpNetwork net(Topology{2, 4}, rng);
    const std::vector<double> in{0.5, -0.5};
    const double before = net.infer(in);
    net.train(in, 1.0, 0.5);
    EXPECT_GT(net.infer(in), before);
    const double mid = net.infer(in);
    net.train(in, 0.0, 0.5);
    EXPECT_LT(net.infer(in), mid);
}

TEST(MlpNetwork, TrainReturnsPreUpdateOutput)
{
    Rng rng(5);
    MlpNetwork net(Topology{2, 4}, rng);
    const std::vector<double> in{0.2, 0.8};
    const double inferred = net.infer(in);
    const double reported = net.train(in, 1.0, 0.2);
    EXPECT_DOUBLE_EQ(reported, inferred);
}

TEST(MlpNetwork, LearnsXor)
{
    // XOR requires the hidden layer: a classic sanity check that
    // back-propagation through both layers works.
    Rng rng(6);
    MlpNetwork net(Topology{2, 4}, rng);
    const std::vector<std::pair<std::vector<double>, double>> xo = {
        {{-1.0, -1.0}, 0.0},
        {{-1.0, 1.0}, 1.0},
        {{1.0, -1.0}, 1.0},
        {{1.0, 1.0}, 0.0},
    };
    for (int epoch = 0; epoch < 4000; ++epoch) {
        for (const auto &[in, target] : xo)
            net.train(in, target, 0.5);
    }
    for (const auto &[in, target] : xo) {
        EXPECT_EQ(net.infer(in) >= 0.5, target >= 0.5)
            << in[0] << "," << in[1];
    }
}

TEST(MlpNetwork, WeightsRoundTrip)
{
    Rng rng(7);
    MlpNetwork a(Topology{3, 5}, rng);
    MlpNetwork b(Topology{3, 5});
    b.setWeights(a.weights());
    const std::vector<double> in{0.1, 0.2, 0.3};
    EXPECT_DOUBLE_EQ(a.infer(in), b.infer(in));
}

TEST(MlpNetwork, WeightAtAccessors)
{
    MlpNetwork net(Topology{2, 2});
    net.setWeightAt(0, 0.75);
    EXPECT_DOUBLE_EQ(net.weightAt(0), 0.75);
    net.setWeightAt(net.weightCount() - 1, -0.5);
    EXPECT_DOUBLE_EQ(net.weightAt(net.weightCount() - 1), -0.5);
}

TEST(MlpNetwork, DeterministicConstruction)
{
    Rng rng1(42);
    Rng rng2(42);
    const MlpNetwork a(Topology{4, 4}, rng1);
    const MlpNetwork b(Topology{4, 4}, rng2);
    EXPECT_EQ(a.weights(), b.weights());
}

} // namespace
} // namespace act
