/**
 * @file
 * Tests for the MESI memory system and the last-writer extension.
 */

#include <gtest/gtest.h>

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
