/**
 * @file
 * Tests for the MESI memory system and the last-writer extension.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "sim/memsys.hh"

namespace act
{
namespace
{

TraceEvent
store(ThreadId tid, Pc pc, Addr addr)
{
    TraceEvent e;
    e.kind = EventKind::kStore;
    e.tid = tid;
    e.pc = pc;
    e.addr = addr;
    return e;
}

TraceEvent
load(ThreadId tid, Pc pc, Addr addr)
{
    TraceEvent e;
    e.kind = EventKind::kLoad;
    e.tid = tid;
    e.pc = pc;
    e.addr = addr;
    return e;
}

MemSystemConfig
smallConfig()
{
    MemSystemConfig c;
    c.cores = 4;
    return c;
}

TEST(MemorySystem, FirstReadIsExclusiveFromMemory)
{
    MemorySystem mem(smallConfig());
    const MemAccess a = mem.access(0, load(0, 0x10, 0x1000));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    EXPECT_EQ(a.prior_state, Mesi::kInvalid);
    // The re-read hits locally.
    const MemAccess b = mem.access(0, load(0, 0x10, 0x1000));
    EXPECT_EQ(b.level, AccessLevel::kL1);
    EXPECT_EQ(b.prior_state, Mesi::kExclusive);
}

TEST(MemorySystem, SecondReaderSeesSharedState)
{
    MemorySystem mem(smallConfig());
    mem.access(0, load(0, 0x10, 0x1000));
    const MemAccess remote = mem.access(1, load(1, 0x20, 0x1000));
    // The E owner supplies the line; both end shared.
    EXPECT_EQ(remote.level, AccessLevel::kRemote);
    const MemAccess again = mem.access(0, load(0, 0x10, 0x1000));
    EXPECT_EQ(again.prior_state, Mesi::kShared);
}

TEST(MemorySystem, StoreInvalidatesSharers)
{
    MemorySystem mem(smallConfig());
    mem.access(0, load(0, 0x10, 0x1000));
    mem.access(1, load(1, 0x20, 0x1000));
    const auto invalidations_before = mem.stats().invalidations;
    mem.access(0, store(0, 0x30, 0x1000));
    EXPECT_EQ(mem.stats().invalidations, invalidations_before + 1);
    // Core 1 must now miss.
    const MemAccess miss = mem.access(1, load(1, 0x20, 0x1000));
    EXPECT_EQ(miss.prior_state, Mesi::kInvalid);
    EXPECT_EQ(miss.level, AccessLevel::kRemote); // dirty c2c transfer
}

TEST(MemorySystem, LocalStoreLoadFormsDependence)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
    EXPECT_EQ(a.last_writer->pc, 0x30u);
    EXPECT_EQ(a.last_writer->tid, 0u);
}

TEST(MemorySystem, DirtyCacheToCachePiggybacksWriter)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    const MemAccess remote = mem.access(1, load(1, 0x40, 0x1000));
    EXPECT_EQ(remote.level, AccessLevel::kRemote);
    ASSERT_TRUE(remote.last_writer.has_value());
    EXPECT_EQ(remote.last_writer->pc, 0x30u);
    EXPECT_EQ(remote.last_writer->tid, 0u);
}

TEST(MemorySystem, ThirdSharerLosesWriterByDefault)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(1, load(1, 0x40, 0x1000)); // dirty c2c, owner now S
    // A third reader finds only clean S copies: MESI serves it from
    // memory and, per Section V, no metadata travels with it.
    const MemAccess third = mem.access(2, load(2, 0x50, 0x1000));
    EXPECT_EQ(third.level, AccessLevel::kMemory);
    EXPECT_FALSE(third.last_writer.has_value());
}

TEST(MemorySystem, AlwaysPiggybackFlagCopiesFromSharers)
{
    MemSystemConfig config = smallConfig();
    config.always_piggyback_writer = true;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(1, load(1, 0x40, 0x1000));
    const MemAccess third = mem.access(2, load(2, 0x50, 0x1000));
    ASSERT_TRUE(third.last_writer.has_value());
    EXPECT_EQ(third.last_writer->pc, 0x30u);
}

TEST(MemorySystem, WritebackMetadataFlagSurvivesEviction)
{
    MemSystemConfig config = smallConfig();
    config.writeback_writer_metadata = true;
    config.l1_bytes = 256;
    config.l1_assoc = 1;
    config.l2_bytes = 512;
    config.l2_assoc = 1;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x0));
    for (int i = 1; i <= 4; ++i)
        mem.access(0, store(0, 0x99, 0x0 + i * 8 * 64));
    const MemAccess a = mem.access(0, load(0, 0x40, 0x0));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    ASSERT_TRUE(a.last_writer.has_value());
    EXPECT_EQ(a.last_writer->pc, 0x30u);
}

TEST(MemorySystem, WordGranularityKeepsNeighboursApart)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(0, store(0, 0x31, 0x1004)); // next word, same line
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
    EXPECT_EQ(a.last_writer->pc, 0x30u);
}

TEST(MemorySystem, LineGranularityAliasesNeighbours)
{
    MemSystemConfig config = smallConfig();
    config.writer_granularity = Granularity::kLine;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(1, store(1, 0x31, 0x1004)); // same line, other word
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
    // False sharing: the line-level writer is the later store.
    EXPECT_EQ(a.last_writer->pc, 0x31u);
}

TEST(MemorySystem, EvictionDropsWriterMetadata)
{
    MemSystemConfig config = smallConfig();
    config.l1_bytes = 256; // 4 lines
    config.l1_assoc = 1;
    config.l2_bytes = 512; // 8 lines
    config.l2_assoc = 1;
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x0));
    // Walk enough conflicting lines to evict line 0 from the
    // direct-mapped 8-set L2 (stride = 8 lines * 64B).
    for (int i = 1; i <= 4; ++i)
        mem.access(0, store(0, 0x99, 0x0 + i * 8 * 64));
    EXPECT_GT(mem.stats().evictions, 0u);
    const MemAccess a = mem.access(0, load(0, 0x40, 0x0));
    EXPECT_EQ(a.level, AccessLevel::kMemory);
    EXPECT_FALSE(a.last_writer.has_value());
}

TEST(MemorySystem, LatencyOrdering)
{
    MemorySystem mem(smallConfig());
    const MemAccess memory = mem.access(0, load(0, 0x10, 0x2000));
    const MemAccess l1 = mem.access(0, load(0, 0x10, 0x2000));
    mem.access(1, store(1, 0x20, 0x3000));
    const MemAccess remote = mem.access(0, load(0, 0x10, 0x3000));
    EXPECT_LT(l1.latency, remote.latency);
    EXPECT_LT(remote.latency, memory.latency);
    EXPECT_EQ(l1.latency, 2u);
    EXPECT_EQ(memory.latency, 2u + 10u + 300u);
}

TEST(MemorySystem, StatsAccumulate)
{
    MemorySystem mem(smallConfig());
    mem.access(0, store(0, 0x30, 0x1000));
    mem.access(0, load(0, 0x40, 0x1000));
    mem.access(1, load(1, 0x50, 0x1000));
    const MemSystemStats &s = mem.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.cache_to_cache, 1u);
    EXPECT_EQ(s.writer_known, 2u);
}

/** Loads @p addr twice on @p core; true if the re-load names a writer. */
bool
reloadShowsWriter(MemorySystem &mem, CoreId core, Addr addr)
{
    mem.access(core, load(core, 0x40, addr));
    return mem.access(core, load(core, 0x40, addr)).last_writer.has_value();
}

TEST(MemorySystem, FilledLinesNeverShowEarlierWriters)
{
    // The last-writer arena is not cleared when it is allocated, on
    // eviction or on a remote invalidation: installing a line is the
    // only clear. A line filled from memory must still show no writer
    // when it is read again, whatever the block held before.
    const MemSystemConfig config; // Table III
    const Addr l2_bytes = config.l2_bytes;
    const Addr sets = config.l2_bytes / config.line_bytes / config.l2_assoc;
    const Addr way_stride = sets * config.line_bytes; // Same set.
    {
        // Leave a store in every word of every L2 line, in freed memory
        // the next system's arena may be given.
        MemorySystem dirty(config);
        for (CoreId c = 0; c < config.cores; ++c) {
            for (Addr a = 0; a < l2_bytes; a += 4)
                dirty.access(c, store(c, 0x30, c * l2_bytes + a));
        }
    }
    MemorySystem mem(config);
    std::size_t stale = 0;
    for (CoreId c = 0; c < config.cores; ++c) {
        for (Addr a = 0; a < l2_bytes; a += config.line_bytes)
            stale += reloadShowsWriter(mem, c, c * l2_bytes + a);
    }
    EXPECT_EQ(stale, 0u) << "fresh lines";

    // Eviction: a stored line is the set's LRU victim when a line from
    // memory arrives, so the new line takes its slot.
    const Addr evict_base = config.cores * l2_bytes;
    const auto evictions_before = mem.stats().evictions;
    stale = 0;
    for (Addr set = 0; set < 64; ++set) {
        const Addr line = evict_base + set * config.line_bytes;
        mem.access(0, store(0, 0x31, line));
        for (Addr way = 1; way < config.l2_assoc; ++way)
            mem.access(0, load(0, 0x41, line + way * way_stride));
        const Addr refill = line + config.l2_assoc * way_stride;
        stale += reloadShowsWriter(mem, 0, refill);
        EXPECT_EQ(mem.stateOf(0, line), Mesi::kInvalid);
    }
    EXPECT_GT(mem.stats().evictions, evictions_before);
    EXPECT_EQ(stale, 0u) << "after eviction";

    // Remote invalidation: core 1's store invalidates core 0's copy,
    // and core 0 refills the slot from memory.
    MemorySystem fresh(config);
    const auto invalidations_before = fresh.stats().invalidations;
    stale = 0;
    for (Addr set = 0; set < 64; ++set) {
        const Addr line = set * config.line_bytes;
        fresh.access(0, store(0, 0x32, line));
        fresh.access(1, store(1, 0x33, line));
        stale += reloadShowsWriter(fresh, 0, line + way_stride);
    }
    EXPECT_EQ(fresh.stats().invalidations, invalidations_before + 64);
    EXPECT_EQ(stale, 0u) << "after remote invalidation";
}

/** Cycles through no fault, a dropped and a stale transfer. */
class CyclingWriterFaults : public FaultHooks
{
  public:
    WriterFaultAction
    onWriterTransfer() override
    {
        switch (calls++ % 3) {
          case 0: return WriterFaultAction::kNone;
          case 1: return WriterFaultAction::kDrop;
          default: return WriterFaultAction::kStale;
        }
    }
    bool dropInputDependence() override { return false; }
    bool dropDebugLog() override { return false; }

    std::uint64_t calls = 0;
};

/** FNV-1a over the bytes of 64-bit values, low byte first. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    operator()(std::uint64_t value)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (value >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** What one random stream exercised, besides its hash. */
struct StreamRun
{
    std::uint64_t hash = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t upgrades = 0;        //!< Stores to a local S line.
    std::uint64_t dirty_transfers = 0; //!< Loads served by an M copy.
    std::uint64_t clean_transfers = 0; //!< Loads served by an E copy.
    MemSystemStats stats;
};

/**
 * 20,000 seeded loads and stores, each from a random core, over a hot
 * pool of lines that crowd four L2 sets: 2 * assoc + 2 tags per set,
 * so every set overflows its ways. The sets pair up on two L1 sets,
 * so the L1 evicts lines the L2 still holds. Hashes every MemAccess
 * field, the statistics and a final stateOf sweep of every core over
 * the pool.
 */
StreamRun
runRandomStream(const MemSystemConfig &config)
{
    MemorySystem mem(config);
    const Addr l2_sets =
        config.l2_bytes / config.line_bytes / config.l2_assoc;
    const Addr l1_sets =
        config.l1_bytes / config.line_bytes / config.l1_assoc;
    const Addr tags = 2 * config.l2_assoc + 2;
    const Addr words = std::min<Addr>(config.line_bytes / 4, 4);
    std::vector<Addr> lines;
    for (Addr t = 3; t < 3 + tags; ++t) {
        for (const Addr s : {Addr{0}, Addr{1}, l1_sets, l1_sets + 1})
            lines.push_back((t * l2_sets + s) * config.line_bytes);
    }

    StreamRun run;
    Fnv1a mix;
    Rng rng(0x3e51ULL);
    for (int i = 0; i < 20000; ++i) {
        const CoreId core = static_cast<CoreId>(rng.next(config.cores));
        const Addr addr =
            lines[rng.next(lines.size())] + 4 * rng.next(words);
        const Pc pc = 0x400 + 4 * rng.next(16);
        const bool is_store = rng.next(10) < 3;

        Mesi remote = Mesi::kInvalid; // Strongest other-core copy.
        for (CoreId c = 0; c < config.cores; ++c) {
            if (c != core)
                remote = std::max(remote, mem.stateOf(c, addr));
        }
        const MemAccess a = mem.access(
            core, is_store ? store(core, pc, addr) : load(core, pc, addr));

        run.l1_hits += a.level == AccessLevel::kL1;
        run.l2_hits += a.level == AccessLevel::kL2;
        run.upgrades += is_store && a.prior_state == Mesi::kShared;
        if (!is_store && a.level == AccessLevel::kRemote) {
            run.dirty_transfers += remote == Mesi::kModified;
            run.clean_transfers += remote == Mesi::kExclusive;
        }
        mix(static_cast<std::uint64_t>(a.level));
        mix(static_cast<std::uint64_t>(a.prior_state));
        mix(a.latency);
        mix(a.l1_hit ? 1 : 0);
        mix(a.last_writer.has_value() ? 1 : 0);
        if (a.last_writer) {
            mix(a.last_writer->pc);
            mix(a.last_writer->tid);
        }
    }

    const MemSystemStats &s = mem.stats();
    for (const std::uint64_t v :
         {s.loads, s.stores, s.l1_hits, s.l2_hits, s.cache_to_cache,
          s.memory_fetches, s.invalidations, s.evictions, s.writer_known,
          s.writer_unknown}) {
        mix(v);
    }
    for (CoreId c = 0; c < config.cores; ++c) {
        for (const Addr line : lines)
            mix(static_cast<std::uint64_t>(mem.stateOf(c, line)));
    }
    run.hash = mix.h;
    run.stats = s;
    return run;
}

/**
 * Pins every decision of the MESI model: hit or miss, the victim, the
 * LRU order, the snoop order, piggybacking and the fault-hook calls.
 * The constants were computed by the model before its tag arrays
 * were flattened and packed.
 */
TEST(MemorySystem, RandomStreamMatchesGoldenHash)
{
    MemSystemConfig tiny; // 1-way: 8 L2 sets, 4 L1 sets per core.
    tiny.cores = 4;
    tiny.l1_bytes = 256;
    tiny.l1_assoc = 1;
    tiny.l2_bytes = 512;
    tiny.l2_assoc = 1;

    const std::uint64_t expected[2][2][3] = {
        // Table III: {word, line} x {default, writeback, piggyback}.
        {{0xad628743ce0ee426ULL, 0x73792389d0017e33ULL,
          0x08fdae7fcab1e630ULL},
         {0x3263b3268261790aULL, 0xd7b233a5cd64f9a3ULL,
          0xd06baa364b9a6303ULL}},
        // Tiny 1-way.
        {{0xd721c03fea71c0ffULL, 0xd9d598b17f604ce0ULL,
          0x434e5b249e8b8f0eULL},
         {0x37029a66a7011c32ULL, 0xabd498ca83682418ULL,
          0x1254f08db298921cULL}},
    };
    for (int g = 0; g < 2; ++g) {
        for (int gran = 0; gran < 2; ++gran) {
            for (int flag = 0; flag < 3; ++flag) {
                SCOPED_TRACE(::testing::Message() << "geometry " << g
                                                  << " granularity " << gran
                                                  << " flag " << flag);
                MemSystemConfig config = g == 0 ? MemSystemConfig{} : tiny;
                config.writer_granularity =
                    gran == 0 ? Granularity::kWord : Granularity::kLine;
                config.writeback_writer_metadata = flag == 1;
                config.always_piggyback_writer = flag == 2;
                const StreamRun run = runRandomStream(config);
                EXPECT_EQ(run.hash, expected[g][gran][flag]);
                EXPECT_GT(run.l1_hits, 0u);
                EXPECT_GT(run.l2_hits, 0u);
                EXPECT_GT(run.upgrades, 0u);
                EXPECT_GT(run.dirty_transfers, 0u);
                EXPECT_GT(run.clean_transfers, 0u);
                EXPECT_GT(run.stats.evictions, 0u);
                EXPECT_GT(run.stats.invalidations, 0u);
            }
        }
    }

    // Faults: every third piggybacked transfer is dropped, every third
    // arrives stale.
    CyclingWriterFaults faults;
    MemSystemConfig faulty;
    faulty.faults = &faults;
    const StreamRun run = runRandomStream(faulty);
    EXPECT_EQ(run.hash, 0x087078ebba2794b2ULL);
    EXPECT_EQ(faults.calls, 3987u);
}

TEST(MemorySystemDeathTest, NonPowerOfTwoSetCountsAbort)
{
    // Set indices are masks, so a geometry with 3 sets is refused.
    MemSystemConfig l2 = smallConfig();
    l2.l2_bytes = 3 * 8 * 64; // 3 sets of 8 ways.
    EXPECT_DEATH({ MemorySystem mem(l2); }, "has_single_bit\\(l2_sets\\)");
    MemSystemConfig l1 = smallConfig();
    l1.l1_bytes = 3 * 4 * 64; // 3 sets of 4 ways.
    EXPECT_DEATH({ MemorySystem mem(l1); }, "has_single_bit\\(l1_sets_\\)");
}

/** Line-size sweep (Table III: 4..128 B). */
class MemLineSize : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MemLineSize, TransferCyclesScaleWithLineSize)
{
    MemSystemConfig config = smallConfig();
    config.line_bytes = GetParam();
    EXPECT_EQ(config.lineTransferCycles(),
              (GetParam() + 31) / 32);
    MemorySystem mem(config);
    mem.access(0, store(0, 0x30, 0x1000));
    const MemAccess a = mem.access(0, load(0, 0x40, 0x1000));
    ASSERT_TRUE(a.last_writer.has_value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MemLineSize,
                         ::testing::Values(4, 32, 64, 128));

} // namespace
} // namespace act
