/**
 * @file
 * Tests for the per-thread ensemble path of the ACT Module, plus the
 * differential golden pins: a dormant module (one member, no
 * protector) must remain bit-identical to the historical onDependence
 * behaviour, and so must a three-member module that votes, trains and
 * switches modes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "act/act_module.hh"
#include "common/hashing.hh"
#include "deps/encoder.hh"

namespace act
{
namespace
{

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

/** The golden generator's dependence stream. */
RawDependence
pseudoDep(std::uint64_t &seed, std::size_t i)
{
    seed = hash3(seed, i, 0x1234);
    return RawDependence{seed % 97, (seed >> 8) % 89,
                         ((seed >> 16) & 1) != 0};
}

/**
 * Drive @p module through 20000 deterministic dependences and hash
 * every observable — per-dep output bits, classification, flag, mode,
 * final counters, Debug Buffer contents.
 */
std::uint64_t
observableHash(ActModule &module)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    std::uint64_t seed = 0xac7f00dULL;
    for (std::size_t i = 0; i < 20000; ++i) {
        const RawDependence dep = pseudoDep(seed, i);
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
    return h;
}

/**
 * Differential pin: a fully dormant module. The constant was generated
 * on the pre-Adaptivity code path; any drift in the K=1 behaviour
 * (stage/commit refactor, mode latch, weight protection hook) breaks
 * it.
 */
TEST(EnsembleDifferential, DormantModuleMatchesGoldenHash)
{
    ActConfig config;
    config.interval_length = 50; // Small, so mode switches happen.
    PairEncoder encoder;
    ActModule module(config, encoder);
    WeightStore store(config.topology);
    store.set(0, pseudoWeights(store.weightCount(), 0x5eedULL));
    module.initThread(0, store);
    EXPECT_EQ(observableHash(module), 0x8e60fdaafd3b7bb6ULL);
}

/**
 * Differential pin of the ensemble path: three distinct members of
 * three hidden neurons each, with a short interval so the module
 * votes, trains every member and switches modes. The hash adds the
 * vote counters to the dormant pin's observables. The constant was
 * generated before onDependence's member loop was rewritten.
 */
TEST(EnsembleDifferential, ThreeMemberModuleMatchesGoldenHash)
{
    ActConfig config;
    config.topology = Topology{6, 3}; // K=3 x h=3 <= M=10.
    config.ensemble.members = 3;
    config.interval_length = 50;
    PairEncoder encoder;
    ActModule module(config, encoder);
    WeightStore store(config.topology);
    store.set(0, pseudoWeights(store.weightCount(), 0x1ULL));
    store.setMember(0, 1, pseudoWeights(store.weightCount(), 0x2ULL));
    store.setMember(0, 2, pseudoWeights(store.weightCount(), 0x3ULL));
    module.initThread(0, store);

    std::uint64_t h = observableHash(module);
    const ActModuleStats &st = module.stats();
    // The pin must cover every branch it claims to.
    EXPECT_GT(st.train_updates, 0u);
    EXPECT_GT(st.mode_switches, 0u);
    EXPECT_GT(st.quorum_overrides, 0u);
    h = hashCombine(h, st.quorum_overrides);
    h = hashCombine(h, st.ensemble_disagreements);
    EXPECT_EQ(h, 0x372417f1dd70c2c5ULL);
}

/** Ensemble config sized within the M = 10 neuron budget. */
ActConfig
ensembleConfig(std::size_t members)
{
    ActConfig config;
    config.topology = Topology{6, 3}; // K=3 x h=3 <= M=10.
    config.ensemble.members = members;
    // One giant interval: no mode switch can perturb the comparison.
    config.interval_length = 1u << 30;
    return config;
}

TEST(Ensemble, MemberCountAndQuorumDefaults)
{
    PairEncoder encoder;
    {
        ActModule dormant(ensembleConfig(1), encoder);
        EXPECT_EQ(dormant.memberCount(), 1u);
        EXPECT_EQ(dormant.quorum(), 1u);
    }
    {
        ActModule trio(ensembleConfig(3), encoder);
        EXPECT_EQ(trio.memberCount(), 3u);
        EXPECT_EQ(trio.quorum(), 2u); // Majority of 3.
    }
}

TEST(Ensemble, UnanimousMembersMatchSingleNetworkFlags)
{
    PairEncoder encoder;
    ActModule single(ensembleConfig(1), encoder);
    ActModule trio(ensembleConfig(3), encoder);

    // Only the member-0 set exists: the extras fall back to it, so all
    // three members are clones and every vote is unanimous.
    WeightStore store(Topology{6, 3});
    store.set(0, pseudoWeights(store.weightCount(), 0x77ULL));
    single.initThread(0, store);
    trio.initThread(0, store);

    std::uint64_t seed = 0xac7f00dULL;
    for (std::size_t i = 0; i < 4000; ++i) {
        const RawDependence dep = pseudoDep(seed, i);
        const ActOutcome a = single.onDependence(dep, 0, i);
        const ActOutcome b = trio.onDependence(dep, 0, i);
        ASSERT_EQ(a.predicted_invalid, b.predicted_invalid) << i;
        ASSERT_EQ(a.output, b.output) << i;
    }
    EXPECT_EQ(trio.stats().ensemble_disagreements, 0u);
    EXPECT_EQ(trio.stats().quorum_overrides, 0u);
    EXPECT_EQ(single.stats().predicted_invalid,
              trio.stats().predicted_invalid);
}

TEST(Ensemble, DisagreementLowersHealthAndCountsOverrides)
{
    PairEncoder encoder;
    ActModule trio(ensembleConfig(3), encoder);

    // Three genuinely different member sets: votes will split.
    WeightStore store(Topology{6, 3});
    store.set(0, pseudoWeights(store.weightCount(), 0x1ULL));
    store.setMember(0, 1, pseudoWeights(store.weightCount(), 0x2ULL));
    store.setMember(0, 2, pseudoWeights(store.weightCount(), 0x3ULL));
    trio.initThread(0, store);

    std::uint64_t seed = 0xfeedULL;
    std::uint64_t member0_flags = 0;
    for (std::size_t i = 0; i < 6000; ++i) {
        const ActOutcome out = trio.onDependence(pseudoDep(seed, i), 0, i);
        member0_flags += (out.output < 0.5) ? 1 : 0;
    }
    // Split votes lower the members' agreement rate,
    // 1 - ensemble_disagreements / predictions, below 1.
    const ActModuleStats &st = trio.stats();
    EXPECT_GT(st.ensemble_disagreements, 0u);
    // Overrides happen exactly when the quorum disagrees with member
    // 0, so they are bounded by the split votes.
    EXPECT_LE(st.quorum_overrides, st.ensemble_disagreements);
    // And the flag the run reports is the quorum's, not member 0's.
    EXPECT_NE(st.predicted_invalid, member0_flags);
}

TEST(Ensemble, SaveRestoreRoundTripsConcatenatedMembers)
{
    PairEncoder encoder;
    ActModule trio(ensembleConfig(3), encoder);
    WeightStore store(Topology{6, 3});
    store.set(0, pseudoWeights(store.weightCount(), 0x1ULL));
    store.setMember(0, 1, pseudoWeights(store.weightCount(), 0x2ULL));
    store.setMember(0, 2, pseudoWeights(store.weightCount(), 0x3ULL));
    trio.initThread(0, store);

    const std::vector<double> saved = trio.saveWeights();
    ASSERT_EQ(saved.size(), 3 * store.weightCount());

    // The chunks are member-major and round-trip exactly.
    std::vector<double> perturbed = saved;
    perturbed[store.weightCount() + 1] = 1.5; // Member 1, weight 1.
    trio.restoreWeights(perturbed);
    EXPECT_EQ(trio.saveWeights(), perturbed);
    EXPECT_EQ(trio.stats().quarantined_weight_sets, 0u);
}

TEST(Ensemble, RestoreQuarantinesACorruptChunk)
{
    PairEncoder encoder;
    ActModule trio(ensembleConfig(3), encoder);
    WeightStore store(Topology{6, 3});
    store.set(0, pseudoWeights(store.weightCount(), 0x1ULL));
    trio.initThread(0, store);
    ASSERT_EQ(trio.mode(), ActMode::kTesting);

    std::vector<double> saved = trio.saveWeights();
    // Poison one weight inside the *last* member's chunk: the whole
    // concatenated set is rejected — members load together or not at
    // all, a torn half-ensemble would skew every quorum vote.
    saved[2 * store.weightCount() + 4] =
        std::numeric_limits<double>::quiet_NaN();
    trio.restoreWeights(saved);
    EXPECT_EQ(trio.stats().quarantined_weight_sets, 1u);
    EXPECT_EQ(trio.mode(), ActMode::kTraining);
    for (const double w : trio.saveWeights())
        EXPECT_EQ(w, 0.0);
}

TEST(Ensemble, ExportWritesMemberSlotsBackToTheStore)
{
    PairEncoder encoder;
    ActModule trio(ensembleConfig(3), encoder);
    WeightStore store(Topology{6, 3});
    store.set(0, pseudoWeights(store.weightCount(), 0x1ULL));
    store.setMember(0, 1, pseudoWeights(store.weightCount(), 0x2ULL));
    store.setMember(0, 2, pseudoWeights(store.weightCount(), 0x3ULL));
    trio.initThread(0, store);

    WeightStore out(Topology{6, 3});
    trio.exportWeights(out, 7);
    ASSERT_TRUE(out.get(7).has_value());
    ASSERT_TRUE(out.getMember(7, 1).has_value());
    ASSERT_TRUE(out.getMember(7, 2).has_value());
    EXPECT_EQ(out.memberCountFor(7), 3u);

    // The exported values are the module's live (Q15.16-quantised)
    // registers, member-major exactly as saveWeights lays them out.
    const std::vector<double> all = trio.saveWeights();
    const std::size_t chunk = store.weightCount();
    const auto member_chunk = [&](std::size_t m) {
        return std::vector<double>(all.begin() + m * chunk,
                                   all.begin() + (m + 1) * chunk);
    };
    EXPECT_EQ(*out.get(7), member_chunk(0));
    EXPECT_EQ(*out.getMember(7, 1), member_chunk(1));
    EXPECT_EQ(*out.getMember(7, 2), member_chunk(2));
}

TEST(Ensemble, CorruptMemberSetFallsBackToMemberZero)
{
    PairEncoder encoder;
    ActModule trio(ensembleConfig(3), encoder);
    WeightStore store(Topology{6, 3});
    const std::vector<double> base =
        pseudoWeights(store.weightCount(), 0x1ULL);
    store.set(0, base);
    std::vector<double> bad = pseudoWeights(store.weightCount(), 0x2ULL);
    bad[0] = std::numeric_limits<double>::infinity();
    store.setMember(0, 1, bad);
    trio.initThread(0, store);

    // The corrupt member-1 set was quarantined and the member degraded
    // to a clone of member 0; the module itself stays in testing mode
    // on its good primary weights. Both copies pass through the same
    // Q15.16 quantisation, so the register chunks compare exactly.
    EXPECT_EQ(trio.stats().quarantined_weight_sets, 1u);
    EXPECT_EQ(trio.mode(), ActMode::kTesting);
    const std::vector<double> all = trio.saveWeights();
    const std::size_t chunk = store.weightCount();
    const std::vector<double> member0(all.begin(), all.begin() + chunk);
    const std::vector<double> member1(all.begin() + chunk,
                                      all.begin() + 2 * chunk);
    EXPECT_EQ(member1, member0);
}

} // namespace
} // namespace act
