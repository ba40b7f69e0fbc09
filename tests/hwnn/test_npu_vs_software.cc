/**
 * @file
 * Differential tests: hardware network vs the software reference MLP.
 *
 * The flat weight-register file and batch kernel in hwnn/pipeline are
 * performance rewrites of the per-Neuron reference model; this suite
 * pins them to the software MlpNetwork across randomly drawn topologies
 * and weight sets. Two layers of guarantee: (1) with weights quantised
 * to Q15.16 on both sides, the hardware output stays within the sigmoid
 * table's resolution of the software output on every topology the AM
 * can configure (inputs, hidden <= M = 10); (2) inferBatchFlat and
 * inferWithRaw are bit-identical to the scalar infer path — batching
 * is a traffic optimisation, never a numerics change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "hwnn/pipeline.hh"
#include "nn/network.hh"

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

/** Draw a weight in [-2, 2] pre-quantised to what Q15.16 can hold. */
double
quantisedWeight(Rng &rng)
{
    return HwFixed::fromDouble(rng.uniform(-2.0, 2.0)).toDouble();
}

TEST(NpuVsSoftware, RandomTopologiesTrackTheReferenceMlp)
{
    constexpr std::uint64_t kTopologies = 40;
    constexpr int kTrialsPerTopology = 50;

    for (std::uint64_t seed = 1; seed <= kTopologies; ++seed) {
        Rng rng(hashCombine(0xd1ff0000ULL, seed));
        const Topology topo{1 + rng.next(10), 1 + rng.next(10)};
        ASSERT_TRUE(topo.valid());

        MlpNetwork soft(topo);
        HwNeuralNetwork hw(defaultHw(), topo);

        // Same quantised weights on both sides: the comparison then
        // isolates the arithmetic (fixed point + sigmoid table) from
        // the one-time weight quantisation loss.
        std::vector<double> weights(soft.weightCount());
        for (double &w : weights)
            w = quantisedWeight(rng);
        soft.setWeights(weights);
        hw.loadWeights(weights);

        for (int trial = 0; trial < kTrialsPerTopology; ++trial) {
            std::vector<double> in(topo.inputs);
            for (double &v : in)
                v = HwFixed::fromDouble(rng.uniform(-2.0, 2.0)).toDouble();
            const double exact = soft.infer(in);
            const double approx = hw.infer(in);
            EXPECT_NEAR(approx, exact, 0.05)
                << "topology " << topo.inputs << "x" << topo.hidden
                << " seed " << seed << " trial " << trial;
            // Both must agree on which side of the decision boundary
            // the input falls whenever the software net is not sitting
            // on the boundary itself.
            if (exact < 0.45 || exact > 0.55) {
                EXPECT_EQ(approx >= 0.5, exact >= 0.5)
                    << "seed " << seed << " trial " << trial;
            }
        }
    }
}

TEST(NpuVsSoftware, InferBatchBitIdenticalToScalarPath)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(hashCombine(0xba7c0000ULL, seed));
        const Topology topo{1 + rng.next(10), 1 + rng.next(10)};
        HwNeuralNetwork hw(defaultHw(), topo);

        std::vector<double> weights(hw.weightCount());
        for (double &w : weights)
            w = rng.uniform(-2.0, 2.0);
        hw.loadWeights(weights);

        const std::size_t count = 64;
        std::vector<double> flat(count * topo.inputs);
        for (double &v : flat)
            v = rng.uniform(-4.0, 4.0);

        std::vector<double> batched;
        hw.inferBatchFlat(flat, topo.inputs, count, batched);
        ASSERT_EQ(batched.size(), count);
        const std::span<const double> items(flat);
        for (std::size_t i = 0; i < count; ++i) {
            // Bitwise equality, not EXPECT_NEAR: the batch kernel must
            // be the same arithmetic, not a close approximation.
            EXPECT_EQ(batched[i],
                      hw.infer(items.subspan(i * topo.inputs, topo.inputs)))
                << "seed " << seed << " item " << i;
        }
    }
}

TEST(NpuVsSoftware, InferWithRawBitIdenticalToSeparateCalls)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(hashCombine(0x4a30000ULL, seed));
        const Topology topo{1 + rng.next(10), 1 + rng.next(10)};
        HwNeuralNetwork hw(defaultHw(), topo);

        std::vector<double> weights(hw.weightCount());
        for (double &w : weights)
            w = rng.uniform(-2.0, 2.0);
        hw.loadWeights(weights);

        for (int trial = 0; trial < 100; ++trial) {
            std::vector<double> in(topo.inputs);
            for (double &v : in)
                v = rng.uniform(-4.0, 4.0);
            double raw = 0.0;
            const double out = hw.inferWithRaw(in, raw);
            EXPECT_EQ(out, hw.infer(in)) << "seed " << seed;
        }
    }
}

TEST(NpuVsSoftware, TrainingConvergesLikeTheSoftwarePath)
{
    // A coarse behavioural check on the flattened train(): learning a
    // constant-1 target must push the output up, mirroring what the
    // AM's online-training mode relies on.
    const Topology topo{4, 6};
    HwNeuralNetwork hw(defaultHw(), topo);
    std::vector<double> zeros(hw.weightCount(), 0.0);
    hw.loadWeights(zeros);

    const std::vector<double> in{0.5, -0.25, 1.0, 0.75};
    const double before = hw.infer(in);
    EXPECT_NEAR(before, 0.5, 1e-3); // Zero weights: sigmoid(0).
    for (int step = 0; step < 200; ++step)
        hw.train(in, 1.0, 0.5);
    EXPECT_GT(hw.infer(in), before + 0.2);
}

} // namespace
} // namespace act
