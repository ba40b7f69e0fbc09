/**
 * @file
 * Tests for the full simulated machine (cores + memory + AMs + OS).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/hashing.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

SystemConfig
testConfig(bool act_on)
{
    SystemConfig config;
    config.mem.cores = 4;
    config.act_enabled = act_on;
    config.act.topology = Topology{6, 10};
    config.act.sequence_length = 3;
    return config;
}

WeightStore
zeroStore(std::uint32_t threads)
{
    WeightStore store(Topology{6, 10});
    std::vector<double> weights(store.weightCount(), 0.0);
    store.setAll(threads, weights);
    return store;
}

Trace
simpleTrace()
{
    Trace trace;
    for (int i = 0; i < 50; ++i) {
        for (ThreadId tid = 0; tid < 2; ++tid) {
            TraceEvent s;
            s.kind = EventKind::kStore;
            s.tid = tid;
            s.pc = 0x100 + tid;
            s.addr = 0x1000 + tid * 64;
            s.gap = 4;
            trace.append(s);
            TraceEvent l;
            l.kind = EventKind::kLoad;
            l.tid = tid;
            l.pc = 0x200 + tid;
            l.addr = 0x1000 + tid * 64;
            l.gap = 4;
            trace.append(l);
        }
    }
    return trace;
}

TEST(System, BaselineRunsWithoutAct)
{
    System system(testConfig(false));
    system.run(simpleTrace());
    const SystemStats stats = system.stats();
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.act.dependences, 0u);
    EXPECT_EQ(stats.weight_transfer_instructions, 0u);
    EXPECT_EQ(system.module(0), nullptr);
}

TEST(System, ActObservesDependences)
{
    PairEncoder encoder;
    System system(testConfig(true), encoder, zeroStore(2));
    system.run(simpleTrace());
    const SystemStats stats = system.stats();
    EXPECT_GT(stats.act.dependences, 0u);
    EXPECT_GT(stats.act.predictions, 0u);
    ASSERT_NE(system.module(0), nullptr);
}

TEST(System, ActAddsOverheadOverBaseline)
{
    const Trace trace = simpleTrace();
    System baseline(testConfig(false));
    baseline.run(trace);
    PairEncoder encoder;
    System with_act(testConfig(true), encoder, zeroStore(2));
    with_act.run(trace);
    EXPECT_GE(with_act.stats().cycles, baseline.stats().cycles);
}

TEST(System, WeightTransfersChargedAtThreadStartAndExit)
{
    PairEncoder encoder;
    System system(testConfig(true), encoder, zeroStore(2));
    Trace trace = simpleTrace();
    TraceEvent exit0;
    exit0.kind = EventKind::kThreadExit;
    exit0.tid = 0;
    trace.append(exit0);
    system.run(trace);
    const SystemStats stats = system.stats();
    // Two thread initialisations plus one exit save.
    const auto per_set = IsaCostModel::weightTransferInstructions(
        WeightStore(Topology{6, 10}).weightCount());
    EXPECT_EQ(stats.weight_transfer_instructions, 3u * per_set);
}

TEST(System, ThreadExitPatchesWeightStore)
{
    PairEncoder encoder;
    WeightStore initial(Topology{6, 10});
    // Thread 0 has no stored weights: it starts with defaults and the
    // exit must record whatever was learned.
    System system(testConfig(true), encoder, initial);
    Trace trace = simpleTrace();
    TraceEvent exit0;
    exit0.kind = EventKind::kThreadExit;
    exit0.tid = 0;
    trace.append(exit0);
    system.run(trace);
    EXPECT_TRUE(system.weightStore().has(0));
}

TEST(System, ContextSwitchWhenThreadsShareACore)
{
    SystemConfig config = testConfig(true);
    config.mem.cores = 1; // both threads pinned to core 0
    PairEncoder encoder;
    System system(config, encoder, zeroStore(2));
    system.run(simpleTrace());
    const SystemStats stats = system.stats();
    EXPECT_GT(stats.context_switches, 50u);
}

/**
 * Two threads time-share one core in bursts of 4-43 events, so every
 * switch restores the other thread's (retrained) weights. Each thread
 * runs a six-event loop over two shared words, one event in eight
 * drawn at random instead, so sequences repeat within a burst. Hashes
 * the statistics and the collected Debug Buffer; the constant was
 * computed by the code before the verdict memo existed.
 */
TEST(System, ContextSwitchRunMatchesGoldenHash)
{
    SystemConfig config = testConfig(true);
    config.mem.cores = 1;
    config.act.interval_length = 40; // Trains and switches modes.
    WeightStore store(config.act.topology);
    for (ThreadId tid = 0; tid < 2; ++tid) {
        std::vector<double> w(store.weightCount());
        std::uint64_t s = 0x51 + tid;
        for (double &x : w) {
            s = hashCombine(s, 0x9e3779b97f4a7c15ULL);
            x = static_cast<double>(static_cast<std::int64_t>(s % 2001) -
                                    1000) /
                500.0;
        }
        store.set(tid, w);
    }

    Trace trace;
    std::uint64_t seed = 0xc0ffeeULL;
    std::uint64_t step[2] = {0, 0};
    ThreadId tid = 0;
    for (std::size_t i = 0; i < 12000;) {
        seed = hash3(seed, i, 0x99);
        const std::size_t burst = 4 + seed % 40;
        for (std::size_t b = 0; b < burst; ++b, ++i) {
            const std::uint64_t r = hash3(seed, b, i);
            const std::uint64_t k =
                r % 8 == 0 ? (r >> 8) % 12 : step[tid]++ % 6;
            TraceEvent e;
            e.tid = tid;
            e.kind = k % 3 == 0 ? EventKind::kStore : EventKind::kLoad;
            e.pc = (e.kind == EventKind::kStore ? 0x100 : 0x200) +
                   0x10 * (k % 4) + tid;
            e.addr = 0x1000 + 4 * ((k / 3) % 2);
            e.gap = 2;
            trace.append(e);
        }
        tid = 1 - tid;
    }

    PairEncoder encoder;
    System system(config, encoder, store);
    system.run(trace);
    const SystemStats st = system.stats();
    EXPECT_GT(st.context_switches, 400u);
    EXPECT_GT(st.act.mode_switches, 0u);
    EXPECT_GT(st.act.predicted_invalid, 0u);
    EXPECT_GT(st.verdict_hits, 0u);
    RecordProperty("verdict_hits", std::to_string(st.verdict_hits));
    RecordProperty("predictions", std::to_string(st.act.predictions));

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(st.cycles);
    mix(st.instructions);
    mix(st.context_switches);
    mix(st.weight_transfer_instructions);
    mix(st.mem.loads);
    mix(st.mem.writer_known);
    for (const std::uint64_t v :
         {st.act.dependences, st.act.predictions, st.act.predicted_invalid,
          st.act.train_updates, st.act.mode_switches, st.act.stalled_offers,
          st.act.stall_cycles, st.act.training_dependences,
          st.act.debug_buffer_overwrites}) {
        mix(v);
    }
    for (const DebugEntry &e : system.collectDebugEntries()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.output, sizeof(bits));
        mix(bits);
        mix(e.when);
        mix(e.tid);
        mix(e.sequence.key());
    }
    EXPECT_EQ(h, 0x77e01fcabeabb61aULL);
}

TEST(System, NoContextSwitchWithDedicatedCores)
{
    PairEncoder encoder;
    System system(testConfig(true), encoder, zeroStore(2));
    system.run(simpleTrace());
    EXPECT_EQ(system.stats().context_switches, 0u);
}

TEST(System, DebugEntriesComeFromModules)
{
    // Default (zero) weights classify everything as valid, so feed a
    // workload through a trained=garbage network by forcing training
    // mode off: instead, check the plumbing via collectDebugEntries
    // being consistent with per-module buffers.
    registerAllWorkloads();
    const auto workload = WorkloadRegistry::instance().create("mysql2");
    WorkloadParams params;
    params.seed = 1;
    params.trigger_failure = true;
    const Trace trace = workload->record(params);

    PairEncoder encoder;
    SystemConfig config = testConfig(true);
    System system(config, encoder, zeroStore(workload->threadCount()));
    system.run(trace);
    std::size_t total = 0;
    for (CoreId c = 0; c < config.mem.cores; ++c) {
        ASSERT_NE(system.module(c), nullptr);
        total += system.module(c)->debugBuffer().size();
    }
    EXPECT_EQ(system.collectDebugEntries().size(), total);
}

TEST(System, InstructionsMatchTraceScale)
{
    const Trace trace = simpleTrace();
    System system(testConfig(false));
    system.run(trace);
    // Every traced event plus its gap executes exactly once.
    EXPECT_EQ(system.stats().instructions, trace.instructionCount());
}

} // namespace
} // namespace act
