/**
 * @file
 * Tests for the three-stage hardware network: functional fidelity
 * against the software MLP, and the Section IV-A timing behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <thread>

#include "analysis/config_check.hh"
#include "common/hashing.hh"
#include "hwnn/neuron.hh"
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
        double raw = 0.0;
        const double out = hw.inferWithRaw(in, raw);
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
    double raw_a = 0.0;
    double raw_b = 0.0;
    hw.inferWithRaw(a, raw_a);
    hw.inferWithRaw(b, raw_b);
    EXPECT_NE(raw_a, raw_b);
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

/** A random network up to 10 x 10 and @p count inputs for it. */
struct RandomCase
{
    Topology topology;
    std::vector<double> weights;
    std::vector<double> flat; //!< Input vectors, back to back.

    std::span<const double>
    input(std::size_t i) const
    {
        return std::span<const double>(flat).subspan(i * topology.inputs,
                                                     topology.inputs);
    }
};

/**
 * Draw a case on one side of the saturation bound. In range: weights
 * and inputs in [-2, 2], where no step can saturate. Near the limit:
 * weights up to +-kHwWeightLimit and input magnitudes log-uniform up
 * to 1e5, so inferences fall on both sides of the bound and most
 * accumulators saturate.
 */
RandomCase
drawCase(Rng &rng, bool near_limit, std::size_t count)
{
    RandomCase c;
    c.topology = Topology{1 + rng.next(10), 1 + rng.next(10)};
    c.weights.resize(c.topology.hidden * (c.topology.inputs + 1) +
                     c.topology.hidden + 1);
    const double limit = near_limit ? kHwWeightLimit : 2.0;
    for (double &w : c.weights)
        w = rng.uniform(-limit, limit);
    c.flat.resize(count * c.topology.inputs);
    for (double &v : c.flat) {
        if (near_limit) {
            const double magnitude = std::pow(10.0, rng.uniform(-6.0, 5.0));
            v = rng.chance(0.5) ? magnitude : -magnitude;
        } else {
            v = rng.uniform(-2.0, 2.0);
        }
    }
    return c;
}

/**
 * The per-Neuron reference model of a loaded network: evaluate() for
 * each hidden neuron, weightedSum() plus the table for the output
 * neuron. Returns the activation; @p raw gets the output accumulator.
 */
double
neuronReference(const SigmoidTable &table, const RandomCase &c,
                std::span<const double> inputs, double &raw)
{
    const NeuronConfig config = defaultHw().neuron;
    const std::span<const double> weights(c.weights);
    const std::size_t stride = c.topology.inputs + 1;
    std::vector<HwFixed> x;
    for (const double v : inputs)
        x.push_back(HwFixed::fromDouble(v));
    std::vector<HwFixed> hidden;
    for (std::size_t k = 0; k < c.topology.hidden; ++k) {
        Neuron neuron(config, table);
        neuron.setWeights(weights.subspan(k * stride, stride));
        hidden.push_back(neuron.evaluate(x));
    }
    Neuron output(config, table);
    output.setWeights(weights.subspan(c.topology.hidden * stride));
    const HwFixed acc = output.weightedSum(hidden);
    raw = acc.toDouble();
    return table.lookup(acc).toDouble();
}

/**
 * Check infer, inferWithRaw and inferBatchFlat of @p hw against the
 * Neuron reference on every input of @p c, adding the number of
 * saturated output accumulators to @p saturated.
 */
void
expectMatchesNeuronReference(const HwNeuralNetwork &hw, const RandomCase &c,
                             std::size_t &saturated)
{
    const SigmoidTable table;
    const std::size_t count = c.flat.size() / c.topology.inputs;
    std::vector<double> batch;
    hw.inferBatchFlat(c.flat, c.topology.inputs, count, batch);
    ASSERT_EQ(batch.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        double expected_raw = 0.0;
        const double expected =
            neuronReference(table, c, c.input(i), expected_raw);
        double raw = 0.0;
        ASSERT_EQ(hw.inferWithRaw(c.input(i), raw), expected) << "item " << i;
        ASSERT_EQ(raw, expected_raw) << "item " << i;
        ASSERT_EQ(hw.infer(c.input(i)), expected) << "item " << i;
        ASSERT_EQ(batch[i], expected) << "item " << i;
        // A saturated accumulator holds INT32_MIN or INT32_MAX, i.e.
        // -32768 or just under +32768.
        if (std::abs(expected_raw) >= kHwWeightLimit)
            ++saturated;
    }
}

TEST(HwNeuralNetwork, EveryEntryPointMatchesTheNeuronReference)
{
    constexpr std::size_t kCount = 200;
    for (const bool near_limit : {false, true}) {
        std::size_t saturated = 0;
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            Rng rng(hashCombine(near_limit ? 0x11a1ULL : 0x1a7eULL, seed));
            const RandomCase c = drawCase(rng, near_limit, kCount);
            HwNeuralNetwork hw(defaultHw(), c.topology);
            hw.loadWeights(c.weights);
            ASSERT_NO_FATAL_FAILURE(
                expectMatchesNeuronReference(hw, c, saturated))
                << "near_limit " << near_limit << " seed " << seed;
        }
        // The near-limit regime must really exercise the saturating
        // loop (28% of its outputs saturate); the in-range one never.
        const std::size_t outputs = 40 * kCount;
        if (near_limit)
            EXPECT_GE(saturated, outputs / 4);
        else
            EXPECT_EQ(saturated, 0u);
    }
}

TEST(HwNeuralNetwork, SaturationBoundHoldsAtItsEdge)
{
    // One hidden neuron with bias -(INT32_MAX - 15004) and three
    // weights of 4001 raw units, fed -1.25 on every input. Each exact
    // product is 5001.25 units, so bias plus products sit 0.25 inside
    // the int32 range, but floor() rounds each product down to -5002
    // and the sum lands one past INT32_MIN. Only the bound's +n term
    // sends this input to the saturating loop. The registers are
    // written one at a time, so setWeightAt must refresh the bound.
    const double lsb = 1.0 / HwFixed::kScale;
    const double w = 4001 * lsb;
    RandomCase c;
    c.topology = Topology{3, 1};
    c.weights = {-(std::numeric_limits<std::int32_t>::max() - 15004) * lsb,
                 w, w, w, 0.0, 1.0};
    c.flat = {-1.25, -1.25, -1.25};
    HwNeuralNetwork hw(defaultHw(), c.topology);
    for (std::size_t i = 0; i < c.weights.size(); ++i)
        hw.setWeightAt(i, c.weights[i]);
    std::size_t saturated = 0;
    expectMatchesNeuronReference(hw, c, saturated);
}

TEST(HwNeuralNetwork, GoldenRunAcrossTheSaturationBound)
{
    // Pins inference and train() bit for bit on both sides of the
    // saturation bound, where the Neuron reference does not reach
    // train(). The constant was computed with the saturating loop
    // alone, before the unclamped int64 path existed.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix_double = [&h](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = hashCombine(h, bits);
    };
    constexpr std::size_t kCount = 100;
    for (const bool near_limit : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            Rng rng(hashCombine(near_limit ? 0x601dULL : 0x600dULL, seed));
            const RandomCase c = drawCase(rng, near_limit, kCount);
            HwNeuralNetwork hw(defaultHw(), c.topology);
            hw.loadWeights(c.weights);
            for (std::size_t i = 0; i < kCount; ++i) {
                double raw = 0.0;
                mix_double(hw.inferWithRaw(c.input(i), raw));
                mix_double(raw);
            }
            for (int step = 0; step < 200; ++step) {
                const std::size_t i = rng.next(kCount);
                const double target = rng.chance(0.5) ? 1.0 : 0.0;
                mix_double(
                    hw.train(c.input(i), target, rng.uniform(0.01, 0.5)));
            }
            for (const double w : hw.storeWeights())
                mix_double(w);
        }
    }
    EXPECT_EQ(h, 0x93196e1360c300bfULL);
}

TEST(HwNeuralNetwork, EveryRegisterWriteBumpsTheVersion)
{
    HwNeuralNetwork hw(defaultHw(), Topology{2, 3});
    std::vector<double> weights(hw.weightCount());
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.1 * static_cast<double>(i % 7) - 0.3;
    const std::vector<double> inputs = {0.5, -1.25};

    std::uint64_t last = hw.version();
    const auto rises = [&hw, &last] {
        const bool rose = hw.version() > last;
        last = hw.version();
        return rose;
    };
    hw.loadWeights(weights);
    EXPECT_TRUE(rises());
    hw.setWeightAt(3, 0.75);
    EXPECT_TRUE(rises());
    hw.train(inputs, 1.0, 0.5);
    EXPECT_TRUE(rises());

    // Inference and the timing model leave the registers alone.
    double raw = 0.0;
    std::vector<double> outputs;
    hw.infer(inputs);
    hw.inferWithRaw(inputs, raw);
    hw.inferBatchFlat(inputs, inputs.size(), 1, outputs);
    hw.offer(0, false);
    hw.offer(1, true);
    hw.flush();
    EXPECT_EQ(hw.version(), last);
}

TEST(HwNeuralNetwork, ConstInferenceIsThreadSafe)
{
    // CI runs this under TSan, which reports any per-pass scratch state
    // the const entry points share between threads.
    constexpr std::size_t kCount = 256;
    constexpr std::size_t kThreads = 4;
    Rng rng(0x7ead);
    const RandomCase c = drawCase(rng, false, kCount);
    HwNeuralNetwork loaded(defaultHw(), c.topology);
    loaded.loadWeights(c.weights);
    const HwNeuralNetwork &hw = loaded;

    struct Pass
    {
        std::vector<double> batch;
        std::vector<double> outputs = std::vector<double>(kCount);
        std::vector<double> raws = std::vector<double>(kCount);
    };
    const auto run = [&hw, &c](Pass &pass) {
        hw.inferBatchFlat(c.flat, c.topology.inputs, kCount, pass.batch);
        for (std::size_t i = 0; i < kCount; ++i)
            pass.outputs[i] = hw.inferWithRaw(c.input(i), pass.raws[i]);
    };
    Pass serial;
    run(serial);

    std::vector<Pass> passes(kThreads);
    std::vector<std::thread> threads;
    for (Pass &pass : passes) {
        threads.emplace_back([&run, &pass] {
            for (int round = 0; round < 20; ++round)
                run(pass);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const Pass &pass : passes) {
        EXPECT_EQ(pass.batch, serial.batch);
        EXPECT_EQ(pass.outputs, serial.outputs);
        EXPECT_EQ(pass.raws, serial.raws);
    }
}

} // namespace
} // namespace act
