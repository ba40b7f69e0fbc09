/**
 * @file
 * Tests for the ACT Module: initialisation, quarantine and weight
 * repair, online testing, Debug Buffer logging, mode switching, retire
 * back-pressure, weight export, the verdict memo, and the differential
 * golden pins of the whole observable behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "act/act_module.hh"
#include "act/weight_guard.hh"
#include "common/fault_hooks.hh"
#include "common/hashing.hh"
#include "nn/trainer.hh"

namespace act
{
namespace
{

constexpr Pc kLoadPc = 0x401004;

RawDependence
validDep(std::uint32_t slot = 0)
{
    // Tight producer/consumer pair: the learned-valid shape.
    const Pc load = kLoadPc + slot * 8;
    return RawDependence{load - 4, load, false};
}

RawDependence
buggyDep()
{
    // A far-away writer: invalid communication.
    return RawDependence{kLoadPc - 13 * 0x1000, kLoadPc, false};
}

ActConfig
testConfig()
{
    ActConfig config;
    config.sequence_length = 1;
    config.topology = Topology{2, 6};
    config.interval_length = 64;
    config.misprediction_threshold = 0.05;
    return config;
}

/** Train a tiny network that accepts near deps and rejects far ones. */
std::vector<double>
trainedWeights()
{
    PairEncoder encoder;
    Dataset data;
    Rng rng(21);
    for (int i = 0; i < 400; ++i) {
        const auto slot = static_cast<std::uint32_t>(rng.next(8));
        std::vector<double> pos;
        encoder.encode(validDep(slot), pos);
        data.add(Example{pos, 1.0});
        std::vector<double> neg;
        const Pc load = kLoadPc + slot * 8;
        encoder.encode(
            RawDependence{load - 0x1000 - rng.next(0x8000), load, false},
            neg);
        data.add(Example{neg, 0.0});
    }
    MlpNetwork net(Topology{2, 6}, rng);
    TrainerConfig config;
    config.max_epochs = 300;
    trainNetwork(net, data, config, rng);
    return net.weights();
}

WeightStore
trainedStore()
{
    WeightStore store(Topology{2, 6});
    store.set(0, trainedWeights());
    return store;
}

TEST(ActModule, InitWithStoredWeightsStartsTesting)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    const std::size_t transferred = module.initThread(0, trainedStore());
    EXPECT_EQ(transferred, module.network().weightCount());
    EXPECT_EQ(module.mode(), ActMode::kTesting);
}

TEST(ActModule, InitWithoutWeightsStartsTraining)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(5, WeightStore(Topology{2, 6}));
    EXPECT_EQ(module.mode(), ActMode::kTraining);
}

TEST(ActModule, ValidDependencePredictedValid)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    const ActOutcome outcome = module.onDependence(validDep(), 0, 100);
    ASSERT_TRUE(outcome.classified);
    EXPECT_FALSE(outcome.predicted_invalid);
    EXPECT_EQ(module.debugBuffer().size(), 0u);
}

TEST(ActModule, InvalidDependenceLoggedWithOutput)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    const ActOutcome outcome = module.onDependence(buggyDep(), 0, 100);
    ASSERT_TRUE(outcome.classified);
    EXPECT_TRUE(outcome.predicted_invalid);
    EXPECT_LT(outcome.output, 0.5);
    ASSERT_EQ(module.debugBuffer().size(), 1u);
    EXPECT_EQ(module.debugBuffer().entries().front().sequence.deps.back(),
              buggyDep());
}

TEST(ActModule, SequenceNeedsWarmup)
{
    ActConfig config = testConfig();
    config.sequence_length = 3;
    config.topology = Topology{6, 6};
    PairEncoder encoder;
    ActModule module(config, encoder);
    WeightStore store(Topology{6, 6});
    store.set(0, std::vector<double>(store.weightCount(), 0.1));
    module.initThread(0, store);
    EXPECT_FALSE(module.onDependence(validDep(0), 0, 1).classified);
    EXPECT_FALSE(module.onDependence(validDep(1), 0, 2).classified);
    EXPECT_TRUE(module.onDependence(validDep(2), 0, 3).classified);
}

TEST(ActModule, HighMispredictionRateEntersTraining)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    ASSERT_EQ(module.mode(), ActMode::kTesting);
    // Flood with rejected-but-presumed-valid dependences: after one
    // interval the rate exceeds 5% and the module starts learning
    // (the few extra dependences then exercise the training path).
    Cycle cycle = 0;
    for (int i = 0; i < 80; ++i)
        module.onDependence(buggyDep(), 0, cycle += 100);
    EXPECT_EQ(module.mode(), ActMode::kTraining);
    EXPECT_GE(module.stats().mode_switches, 1u);
    EXPECT_GT(module.stats().train_updates, 0u);
}

TEST(ActModule, TrainingLearnsAndReturnsToTesting)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    Cycle cycle = 0;
    // Enter training via sustained novel dependences...
    for (int i = 0; i < 64; ++i)
        module.onDependence(buggyDep(), 0, cycle += 100);
    ASSERT_EQ(module.mode(), ActMode::kTraining);
    // ...keep seeing them; the network learns them as valid and the
    // misprediction rate falls below the threshold again.
    for (int i = 0; i < 64 * 40 && module.mode() == ActMode::kTraining;
         ++i) {
        module.onDependence(buggyDep(), 0, cycle += 100);
    }
    EXPECT_EQ(module.mode(), ActMode::kTesting);
    // The previously novel dependence is now accepted.
    const ActOutcome outcome =
        module.onDependence(buggyDep(), 0, cycle += 100);
    EXPECT_FALSE(outcome.predicted_invalid);
}

TEST(ActModule, RateAtTheThresholdKeepsTestingAndEndsTraining)
{
    // The paper's latch: testing switches to training only when an
    // interval's misprediction rate exceeds the threshold, and training
    // returns to testing when it is at or below it. One flag in 20
    // predictions is exactly the 5% threshold.
    ActConfig config = testConfig();
    config.interval_length = 20;
    PairEncoder encoder;
    ActModule module(config, encoder);
    module.initThread(0, trainedStore());
    ASSERT_EQ(module.mode(), ActMode::kTesting);
    Cycle cycle = 0;
    // One interval whose last @p flags dependences are rejected (last,
    // so a training step cannot change an earlier verdict).
    const auto interval = [&](std::uint32_t flags) {
        for (std::uint32_t i = 0; i < 20; ++i) {
            const RawDependence dep =
                i + flags < 20 ? validDep(i % 8) : buggyDep();
            module.onDependence(dep, 0, cycle += 100);
        }
    };

    interval(1);
    EXPECT_EQ(module.mode(), ActMode::kTesting);
    EXPECT_EQ(module.stats().mode_switches, 0u);
    interval(2); // 10%: above the threshold.
    ASSERT_EQ(module.mode(), ActMode::kTraining);
    interval(1);
    EXPECT_EQ(module.mode(), ActMode::kTesting);
    EXPECT_EQ(module.stats().mode_switches, 2u);
    EXPECT_EQ(module.stats().predicted_invalid, 4u);
}

TEST(ActModule, FifoBackpressureStallsLoads)
{
    ActConfig config = testConfig();
    config.hw.fifo_entries = 1;
    PairEncoder encoder;
    ActModule module(config, encoder);
    module.initThread(0, trainedStore());
    // Two dependences in the same cycle: the second must wait for the
    // first to vacate the single-entry FIFO.
    const ActOutcome first = module.onDependence(validDep(), 0, 10);
    EXPECT_EQ(first.stall_cycles, 0u);
    const ActOutcome second = module.onDependence(validDep(), 0, 10);
    EXPECT_GT(second.stall_cycles, 0u);
    EXPECT_GT(module.stats().stalled_offers, 0u);
}

TEST(ActModule, SaveRestoreWeightsRoundTrip)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    const auto saved = module.saveWeights();
    ActModule other(testConfig(), encoder);
    other.initThread(9, WeightStore(Topology{2, 6})); // defaults
    other.restoreWeights(saved);
    const ActOutcome a = module.onDependence(buggyDep(), 0, 1);
    const ActOutcome b = other.onDependence(buggyDep(), 9, 1);
    EXPECT_EQ(a.predicted_invalid, b.predicted_invalid);
    EXPECT_NEAR(a.output, b.output, 1e-9);
}

TEST(ActModule, StatsCount)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    module.onDependence(validDep(), 0, 1);
    module.onDependence(buggyDep(), 0, 2);
    const ActModuleStats &stats = module.stats();
    EXPECT_EQ(stats.dependences, 2u);
    EXPECT_EQ(stats.predictions, 2u);
    EXPECT_EQ(stats.predicted_invalid, 1u);
}

TEST(ActModule, InitQuarantinesNaNStoredWeights)
{
    // A corrupt stored set (e.g. a flipped exponent bit turning a
    // weight into NaN) must never reach loadWeights(): the module
    // quarantines it and behaves exactly like a thread with no stored
    // weights at all.
    auto weights = trainedWeights();
    weights[3] = std::numeric_limits<double>::quiet_NaN();
    WeightStore store(Topology{2, 6});
    store.set(0, weights);

    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, store);
    EXPECT_EQ(module.mode(), ActMode::kTraining);
    EXPECT_EQ(module.stats().quarantined_weight_sets, 1u);
}

TEST(ActModule, InitQuarantinesOutOfRangeStoredWeights)
{
    // Finite but far beyond the Q15.16 hardware range: the int32
    // quantisation cast would be undefined behaviour.
    auto weights = trainedWeights();
    weights[0] = 1e12;
    WeightStore store(Topology{2, 6});
    store.set(0, weights);

    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, store);
    EXPECT_EQ(module.mode(), ActMode::kTraining);
    EXPECT_EQ(module.stats().quarantined_weight_sets, 1u);
}

TEST(ActModule, SecondQuarantineDistrustsTheStoreForThatTid)
{
    auto weights = trainedWeights();
    weights[3] = std::numeric_limits<double>::quiet_NaN();
    WeightStore rotten(Topology{2, 6});
    rotten.set(0, weights);

    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, rotten);
    module.initThread(0, rotten);
    EXPECT_EQ(module.stats().quarantined_weight_sets, 2u);
    EXPECT_EQ(module.stats().quarantine_escalations, 1u);

    // Escalated: even a clean store is not read for tid 0 again, so
    // the module trains from the zero network and counts nothing new.
    module.initThread(0, trainedStore());
    EXPECT_EQ(module.mode(), ActMode::kTraining);
    EXPECT_EQ(module.saveWeights(),
              std::vector<double>(module.network().weightCount(), 0.0));
    EXPECT_EQ(module.stats().quarantined_weight_sets, 2u);
    EXPECT_EQ(module.stats().quarantine_escalations, 1u);
}

TEST(ActModule, InitRepairsASilentlyFlippedSetFromTheGuard)
{
    const WeightStore clean = trainedStore();
    const WeightGuard guard = WeightGuard::build(clean);

    // A high mantissa bit: the value stays finite and in range, so
    // only the checksum can tell the set was damaged.
    std::vector<double> weights = *clean.get(0);
    std::uint64_t raw = 0;
    std::memcpy(&raw, &weights[2], sizeof(raw));
    raw ^= 1ULL << 50;
    std::memcpy(&weights[2], &raw, sizeof(raw));
    WeightStore damaged(Topology{2, 6});
    damaged.set(0, weights);

    PairEncoder encoder;
    ActModule reference(testConfig(), encoder);
    reference.initThread(0, clean);
    ActModule unguarded(testConfig(), encoder);
    unguarded.initThread(0, damaged);
    ASSERT_EQ(unguarded.mode(), ActMode::kTesting);
    ASSERT_NE(unguarded.saveWeights(), reference.saveWeights());

    ActConfig config = testConfig();
    config.protector = &guard;
    ActModule module(config, encoder);
    module.initThread(0, damaged);
    EXPECT_EQ(module.stats().repaired_weight_sets, 1u);
    EXPECT_EQ(module.stats().quarantined_weight_sets, 0u);
    EXPECT_EQ(module.mode(), ActMode::kTesting);
    EXPECT_EQ(module.saveWeights(), reference.saveWeights());
}

TEST(ActModule, RestoreWeightsQuarantinesCorruptSet)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());
    ASSERT_EQ(module.mode(), ActMode::kTesting);

    auto corrupt = module.saveWeights();
    corrupt[1] = -std::numeric_limits<double>::infinity();
    module.restoreWeights(corrupt);
    EXPECT_EQ(module.mode(), ActMode::kTraining);
    EXPECT_EQ(module.stats().quarantined_weight_sets, 1u);
}

/** Scriptable hooks for driving the module's injection sites. */
class ScriptedHooks final : public FaultHooks
{
  public:
    bool drop_input = false;
    bool drop_debug = false;

    WriterFaultAction
    onWriterTransfer() override
    {
        return WriterFaultAction::kNone;
    }
    bool dropInputDependence() override { return drop_input; }
    bool dropDebugLog() override { return drop_debug; }
};

TEST(ActModule, InjectedInputDropIsCountedAndAbsorbed)
{
    ScriptedHooks hooks;
    ActConfig config = testConfig();
    config.faults = &hooks;
    PairEncoder encoder;
    ActModule module(config, encoder);
    module.initThread(0, trainedStore());

    hooks.drop_input = true;
    const ActOutcome dropped = module.onDependence(validDep(), 0, 1);
    EXPECT_FALSE(dropped.classified);
    EXPECT_EQ(module.stats().input_drops_injected, 1u);
    EXPECT_EQ(module.stats().predictions, 0u);

    // With the fault gone the module is fully functional again.
    hooks.drop_input = false;
    const ActOutcome clean = module.onDependence(validDep(), 0, 2);
    EXPECT_TRUE(clean.classified);
    EXPECT_EQ(module.stats().input_drops_injected, 1u);
}

TEST(ActModule, InjectedDebugDropLosesLogEntryOnly)
{
    ScriptedHooks hooks;
    ActConfig config = testConfig();
    config.faults = &hooks;
    PairEncoder encoder;
    ActModule module(config, encoder);
    module.initThread(0, trainedStore());

    hooks.drop_debug = true;
    const ActOutcome outcome = module.onDependence(buggyDep(), 0, 100);
    // The prediction itself is unaffected; only the log entry is lost.
    ASSERT_TRUE(outcome.classified);
    EXPECT_TRUE(outcome.predicted_invalid);
    EXPECT_EQ(module.debugBuffer().size(), 0u);
    EXPECT_EQ(module.stats().debug_drops_injected, 1u);
}

TEST(ActModule, StagedCommitMatchesOnDependence)
{
    // The split-phase path (stage -> external inference -> commit) must
    // reproduce the function half of onDependence bit for bit: same
    // outputs, same classifications, same Debug Buffer contents.
    ActConfig config = testConfig();
    config.interval_length = 1 << 20; // No mode switch mid-test.
    const std::vector<double> weights = trainedWeights();

    PairEncoder encoder;
    ActModule reference(config, encoder);
    reference.restoreWeights(weights);
    ActModule staged(config, encoder);
    staged.restoreWeights(weights);

    Rng rng(17);
    for (int i = 0; i < 300; ++i) {
        const RawDependence dep =
            rng.next(3) == 0
                ? buggyDep()
                : validDep(static_cast<std::uint32_t>(rng.next(8)));
        const ActOutcome ref = reference.onDependence(dep, 1, i);

        const bool formed = staged.stageDependence(dep);
        ASSERT_EQ(formed, ref.classified);
        if (!formed)
            continue;
        const double output =
            staged.network().infer(staged.stagedInputs());
        const StagedOutcome outcome = staged.commitPrediction(
            staged.stagedSequence(), staged.stagedInputs(), output, 1);
        EXPECT_EQ(output, ref.output);
        EXPECT_EQ(outcome.predicted_invalid, ref.predicted_invalid);
    }

    EXPECT_EQ(staged.stats().dependences, reference.stats().dependences);
    EXPECT_EQ(staged.stats().predictions, reference.stats().predictions);
    EXPECT_EQ(staged.stats().predicted_invalid,
              reference.stats().predicted_invalid);

    const auto ref_entries = reference.debugBuffer().entries();
    const auto staged_entries = staged.debugBuffer().entries();
    ASSERT_EQ(staged_entries.size(), ref_entries.size());
    for (std::size_t i = 0; i < ref_entries.size(); ++i) {
        EXPECT_EQ(staged_entries[i].output, ref_entries[i].output);
        EXPECT_EQ(staged_entries[i].when, ref_entries[i].when);
        EXPECT_EQ(staged_entries[i].tid, ref_entries[i].tid);
    }
}

TEST(ActModule, BoundArenasIsolateInterleavedStreams)
{
    // One engine, two interleaved arenas: each arena must end up
    // exactly where a dedicated module fed only its own stream would.
    ActConfig config = testConfig();
    config.interval_length = 1 << 20;
    const std::vector<double> weights = trainedWeights();

    PairEncoder encoder;
    ActModule mux(config, encoder);
    mux.restoreWeights(weights);
    ActArena arena_a = mux.makeArena();
    ActArena arena_b = mux.makeArena();

    ActModule solo_a(config, encoder);
    solo_a.restoreWeights(weights);
    ActModule solo_b(config, encoder);
    solo_b.restoreWeights(weights);

    const auto feed = [&mux](ActArena &arena, const RawDependence &dep) {
        mux.bindArena(&arena);
        if (!mux.stageDependence(dep))
            return;
        const double output = mux.network().infer(mux.stagedInputs());
        mux.commitPrediction(mux.stagedSequence(), mux.stagedInputs(),
                             output, 0);
    };

    for (int i = 0; i < 200; ++i) {
        const RawDependence a =
            validDep(static_cast<std::uint32_t>(i % 8));
        const RawDependence b = (i % 2) != 0 ? buggyDep() : validDep(3);
        feed(arena_a, a);
        feed(arena_b, b);
        solo_a.onDependence(a, 0, i);
        solo_b.onDependence(b, 0, i);
    }
    mux.bindArena(nullptr);

    EXPECT_EQ(arena_a.stats.predictions, solo_a.stats().predictions);
    EXPECT_EQ(arena_a.stats.predicted_invalid,
              solo_a.stats().predicted_invalid);
    EXPECT_EQ(arena_b.stats.predictions, solo_b.stats().predictions);
    EXPECT_EQ(arena_b.stats.predicted_invalid,
              solo_b.stats().predicted_invalid);
    EXPECT_EQ(arena_a.debug.size(), solo_a.debugBuffer().size());
    EXPECT_EQ(arena_b.debug.size(), solo_b.debugBuffer().size());
    // The streams really were different.
    EXPECT_NE(arena_a.stats.predicted_invalid,
              arena_b.stats.predicted_invalid);
}

TEST(ActModule, ExportWritesLiveRegistersAndSkipsAForeignTopology)
{
    PairEncoder encoder;
    ActModule module(testConfig(), encoder);
    module.initThread(0, trainedStore());

    // The exported values are the module's live (Q15.16-quantised)
    // registers, not the unquantised set it was initialised from.
    WeightStore out(Topology{2, 6});
    module.exportWeights(out, 7);
    ASSERT_TRUE(out.get(7).has_value());
    EXPECT_EQ(*out.get(7), module.saveWeights());
    EXPECT_NE(*out.get(7), trainedWeights());
    EXPECT_EQ(out.size(), 1u);

    // A store of another topology cannot be patched with this set.
    WeightStore foreign(Topology{4, 6});
    module.exportWeights(foreign, 7);
    EXPECT_FALSE(foreign.has(7));
    EXPECT_EQ(foreign.size(), 0u);
}

/** Deterministic pseudo-weights in [-2, 2] (the golden generator's). */
std::vector<double>
pseudoWeights(std::size_t count, std::uint64_t s)
{
    std::vector<double> w(count);
    for (double &x : w) {
        s = hashCombine(s, 0x9e3779b97f4a7c15ULL);
        x = static_cast<double>(static_cast<std::int64_t>(s % 2001) -
                                1000) /
            500.0;
    }
    return w;
}

/**
 * Differential pin of a module with no protector and no faults: 20000
 * deterministic dependences, hashing every observable — per-dep output
 * bits, classification, flag, mode, final counters, Debug Buffer
 * contents. The constant was generated on the pre-adaptivity code
 * path; any drift in the module's behaviour (stage/commit refactor,
 * mode latch, weight protection hook) breaks it.
 */
TEST(ActModule, DormantModuleMatchesGoldenHash)
{
    ActConfig config;
    config.interval_length = 50; // Small, so mode switches happen.
    PairEncoder encoder;
    ActModule module(config, encoder);
    WeightStore store(config.topology);
    store.set(0, pseudoWeights(store.weightCount(), 0x5eedULL));
    module.initThread(0, store);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    std::uint64_t seed = 0xac7f00dULL;
    for (std::size_t i = 0; i < 20000; ++i) {
        seed = hash3(seed, i, 0x1234);
        const RawDependence dep{seed % 97, (seed >> 8) % 89,
                                ((seed >> 16) & 1) != 0};
        const ActOutcome out = module.onDependence(dep, 0, i);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &out.output, sizeof(bits));
        mix(bits);
        mix(out.classified ? 1 : 0);
        mix(out.predicted_invalid ? 1 : 0);
        mix(static_cast<std::uint64_t>(module.mode()));
    }
    const ActModuleStats &st = module.stats();
    mix(st.predictions);
    mix(st.predicted_invalid);
    mix(st.train_updates);
    mix(st.mode_switches);
    mix(st.training_dependences);
    mix(st.debug_buffer_overwrites);
    for (const auto &e : module.debugBuffer().entries()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.output, sizeof(bits));
        mix(bits);
        mix(e.when);
    }
    EXPECT_EQ(h, 0x8e60fdaafd3b7bb6ULL);
}

/** What one module made of the repeating stream below. */
struct StreamRun
{
    std::uint64_t hash = 0;
    std::uint64_t predictions = 0;
    std::uint64_t verdict_hits = 0;
};

/**
 * Feed 20000 dependences of a program-like stream to a module with
 * pseudo-random weights: a loop over 12 dependences, one dependence in
 * eight replaced by a draw from 5 stores x 4 loads x 2 labels, so most
 * sequences repeat. Hashes every observable, as the dormant pin does,
 * plus the logged sequences themselves.
 */
StreamRun
runRepeatingStream(const DependenceEncoder &encoder)
{
    ActConfig config;
    config.interval_length = 50; // Trains and switches modes.
    config.topology = Topology{config.sequence_length * encoder.width(), 10};
    ActModule module(config, encoder);
    WeightStore store(config.topology);
    store.set(0, pseudoWeights(store.weightCount(), 0x7e9eULL));
    module.initThread(0, store);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    std::uint64_t seed = 0x5eed5ULL;
    for (std::size_t i = 0; i < 20000; ++i) {
        seed = hash3(seed, i, 0x5678);
        const std::uint64_t k = seed % 8 == 0 ? (seed >> 8) % 40 : i % 12;
        const RawDependence dep{0x4000 + 0x10 * (k % 5),
                                0x4400 + 0x8 * ((k / 5) % 4), k >= 20};
        const ActOutcome out = module.onDependence(dep, 0, i);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &out.output, sizeof(bits));
        mix(bits);
        mix(out.classified ? 1 : 0);
        mix(out.predicted_invalid ? 1 : 0);
        mix(static_cast<std::uint64_t>(module.mode()));
    }
    const ActModuleStats &st = module.stats();
    mix(st.dependences);
    mix(st.predictions);
    mix(st.predicted_invalid);
    mix(st.train_updates);
    mix(st.mode_switches);
    mix(st.training_dependences);
    mix(st.debug_buffer_overwrites);
    for (const auto &e : module.debugBuffer().entries()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.output, sizeof(bits));
        mix(bits);
        mix(e.when);
        mix(e.sequence.key());
    }
    return StreamRun{h, st.predictions, module.verdictHits()};
}

/**
 * The verdict memo must not change a bit of a module whose sequences
 * repeat while it trains and switches modes. The constants were
 * computed by the code before the memo existed; the dictionary run's
 * eight codes wrap, so distinct dependences share codes.
 */
TEST(ActModule, RepeatingStreamMatchesGoldenHash)
{
    const StreamRun pair = runRepeatingStream(PairEncoder());
    EXPECT_EQ(pair.hash, 0x01a73aa8218d9843ULL);
    const StreamRun dict = runRepeatingStream(DictionaryEncoder(8));
    EXPECT_EQ(dict.hash, 0x662634bdbd50e4f0ULL);

    // The stream exercises the memo: most sequences hit it.
    EXPECT_GT(pair.verdict_hits * 2, pair.predictions);
    EXPECT_GT(dict.verdict_hits * 2, dict.predictions);
    RecordProperty("pair_verdict_hits", std::to_string(pair.verdict_hits));
    RecordProperty("dict_verdict_hits", std::to_string(dict.verdict_hits));
    RecordProperty("predictions", std::to_string(pair.predictions));
}

/** The stand-alone network's output for the one-dependence @p dep. */
double
referenceOutput(const HwNeuralNetwork &network, const RawDependence &dep)
{
    PairEncoder encoder;
    return network.infer(encoder.encodeSequence(DependenceSequence{{dep}}));
}

TEST(ActModule, RegisterWriteInvalidatesAMemoisedVerdict)
{
    ActConfig config = testConfig();
    config.interval_length = 1 << 20; // No mode switch mid-test.
    const std::vector<double> weights_a = trainedWeights();
    std::vector<double> weights_b = weights_a;
    for (double &w : weights_b)
        w = -w / 2;
    PairEncoder encoder;
    const RawDependence dep = validDep(1);

    // Testing mode: a verdict memoised under weights A must not outlive
    // restoreWeights(B).
    {
        ActModule module(config, encoder);
        module.restoreWeights(weights_a);
        const double under_a = module.onDependence(dep, 0, 0).output;
        EXPECT_EQ(module.onDependence(dep, 0, 1).output, under_a);
        EXPECT_EQ(module.verdictHits(), 1u);

        module.restoreWeights(weights_b);
        HwNeuralNetwork reference(config.hw, config.topology);
        reference.loadWeights(weights_b);
        const double under_b = referenceOutput(reference, dep);
        ASSERT_NE(under_b, under_a);
        EXPECT_EQ(module.onDependence(dep, 0, 2).output, under_b);
        EXPECT_EQ(module.verdictHits(), 1u);
    }

    // Training mode: a flagged sequence trains the network; the
    // sequence itself and every sequence memoised before the step must
    // read the post-training registers when replayed.
    {
        ActModule module(config, encoder);
        module.initThread(5, WeightStore(config.topology));
        ASSERT_EQ(module.mode(), ActMode::kTraining);
        module.restoreWeights(weights_a); // Stays in training mode.
        ASSERT_EQ(module.mode(), ActMode::kTraining);

        HwNeuralNetwork reference(config.hw, config.topology);
        reference.loadWeights(weights_a);
        const std::vector<double> bug_inputs =
            encoder.encodeSequence(DependenceSequence{{buggyDep()}});

        const double valid_before = module.onDependence(dep, 0, 0).output;
        EXPECT_EQ(valid_before, referenceOutput(reference, dep));
        ASSERT_TRUE(module.onDependence(buggyDep(), 0, 1).predicted_invalid);
        reference.train(bug_inputs, 1.0, config.learning_rate);

        const double bug_after = reference.infer(bug_inputs);
        EXPECT_EQ(module.onDependence(buggyDep(), 0, 2).output, bug_after);
        if (bug_after < 0.5) // The replay trains once more.
            reference.train(bug_inputs, 1.0, config.learning_rate);

        const double valid_after = referenceOutput(reference, dep);
        ASSERT_NE(valid_after, valid_before);
        EXPECT_EQ(module.onDependence(dep, 0, 3).output, valid_after);
        EXPECT_EQ(module.stats().train_updates, bug_after < 0.5 ? 2u : 1u);
    }
}

} // namespace
} // namespace act
