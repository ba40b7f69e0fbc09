/**
 * @file
 * The simulated memory system: per-core private L1/L2 caches, a snoopy
 * MESI bus at the L2 level, and the last-writer cache-line extension
 * ACT adds (Sections III-C and V, Table III).
 *
 * Last-writer rules follow the paper's three simplifications, each
 * individually configurable so the benches can measure their cost:
 *  - granularity: per word (precise) or per line (cheap, false
 *    sharing);
 *  - eviction: last-writer metadata is dropped on eviction (not
 *    written back to memory);
 *  - piggybacking: metadata travels only with cache-to-cache transfers
 *    of dirty lines (a read miss served by another cache's M line).
 *
 * Storage is laid out for the host, not the modelled machine: every
 * core's L2 tags share one flat, set-major array of packed
 * address+state words, the L1 tags carry their own valid bit, set
 * indices are masks, and the last-writer records of every L2 line sit
 * in one arena indexed like the tags (DESIGN.md §9).
 */

#ifndef ACT_SIM_MEMSYS_HH
#define ACT_SIM_MEMSYS_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/fault_hooks.hh"
#include "common/types.hh"
#include "deps/tracker.hh" // WriterRecord, Granularity
#include "trace/event.hh"

namespace act
{

/** MESI coherence states. */
enum class Mesi : std::uint8_t
{
    kInvalid,
    kShared,
    kExclusive,
    kModified
};

const char *mesiName(Mesi state);

/** Where an access was satisfied. */
enum class AccessLevel : std::uint8_t
{
    kL1,     //!< Local L1 hit.
    kL2,     //!< Local L2 hit.
    kRemote, //!< Cache-to-cache transfer from another core's L2.
    kMemory  //!< Served by main memory.
};

/** Memory-system parameters (Table III defaults). */
struct MemSystemConfig
{
    std::uint32_t cores = 8;

    std::uint32_t l1_bytes = 32 * 1024;
    std::uint32_t l1_assoc = 4;
    std::uint32_t l1_latency = 2;

    std::uint32_t l2_bytes = 512 * 1024;
    std::uint32_t l2_assoc = 8;
    std::uint32_t l2_latency = 10;

    std::uint32_t line_bytes = 64;
    std::uint32_t bus_bytes_per_cycle = 32;
    std::uint32_t memory_latency = 300;

    /** Last-writer tracking granularity (word = precise). */
    Granularity writer_granularity = Granularity::kWord;

    /**
     * Mirror last-writer metadata in main memory so it survives
     * evictions and clean fills (paper: false — Section V drops it).
     */
    bool writeback_writer_metadata = false;

    /**
     * Piggyback last-writer metadata on every cache-sourced response
     * (including clean copies held by sharers) rather than only on
     * dirty cache-to-cache transfers (paper: false).
     */
    bool always_piggyback_writer = false;

    /**
     * Fault-injection decision points for piggybacked last-writer
     * transfers (resilience experiments only). Null — the default —
     * means no faults. Non-owning.
     */
    FaultHooks *faults = nullptr;

    /** Cycles to move one line across the bus. */
    Cycle
    lineTransferCycles() const
    {
        return (line_bytes + bus_bytes_per_cycle - 1) /
               bus_bytes_per_cycle;
    }
};

/** Result of one memory access. */
struct MemAccess
{
    AccessLevel level = AccessLevel::kL1;
    Mesi prior_state = Mesi::kInvalid; //!< Local L2 state before.
    Cycle latency = 0;                 //!< Cycles to completion.
    bool l1_hit = false;

    /** For loads: the last writer of the accessed word, if known. */
    std::optional<WriterRecord> last_writer;
};

/** Aggregate memory-system statistics. */
struct MemSystemStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t cache_to_cache = 0;
    std::uint64_t memory_fetches = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writer_known = 0;  //!< Loads with last-writer info.
    std::uint64_t writer_unknown = 0;
};

/**
 * The full multi-core memory system.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSystemConfig &config);

    const MemSystemConfig &config() const { return config_; }
    const MemSystemStats &stats() const { return stats_; }

    /**
     * Perform a load or store by @p core.
     *
     * @param core  Issuing core.
     * @param event The memory event (kLoad or kStore).
     * @return Access outcome, including last-writer info for loads.
     */
    MemAccess access(CoreId core, const TraceEvent &event);

    /**
     * Coherence state of @p addr's line in @p core's L2 (kInvalid when
     * absent). Introspection for tests and debugging.
     */
    Mesi stateOf(CoreId core, Addr addr) const;

  private:
    /** Releases a std::aligned_alloc'ed block. */
    struct FreeDeleter
    {
        void operator()(void *block) const { std::free(block); }
    };

    /**
     * @p count uninitialised Ts in a std::aligned_alloc'ed block that
     * starts on a host cache line.
     */
    template <typename T>
    static std::unique_ptr<T[], FreeDeleter> alignedArray(std::size_t count);

    /** Returned by findLine when the line is absent. */
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /** Low bits of an L2 tag word that hold its Mesi state. */
    static constexpr unsigned kStateBits = 2;
    static constexpr std::uint64_t kStateMask = (1u << kStateBits) - 1;

    static std::uint64_t
    packTag(Addr line_addr, Mesi state)
    {
        return line_addr << kStateBits | static_cast<std::uint64_t>(state);
    }

    static Mesi
    tagState(std::uint64_t tag)
    {
        return static_cast<Mesi>(tag & kStateMask);
    }

    Addr lineAddr(Addr addr) const
    {
        return addr >> line_shift_;
    }

    std::uint32_t wordIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr & word_mask_) >> 2;
    }

    /** Line index of way 0 of @p core's copy of @p line_addr's set. */
    std::size_t
    l2Ways(CoreId core, Addr line_addr) const
    {
        return (static_cast<std::size_t>(line_addr & l2_set_mask_) *
                    config_.cores +
                core) *
               config_.l2_assoc;
    }

    /** Index of way 0 of @p core's L1 set for @p line_addr. */
    std::size_t
    l1Ways(CoreId core, Addr line_addr) const
    {
        return (static_cast<std::size_t>(core) * l1_sets_ +
                (line_addr & l1_set_mask_)) *
               config_.l1_assoc;
    }

    /** The L1 tag word of a valid way holding @p line_addr. */
    static std::uint64_t l1Tag(Addr line_addr) { return line_addr << 1 | 1; }

    /** The arena block of line @p line (always `words_` records). */
    WriterRecord *
    lineWriters(std::size_t line)
    {
        return writers_.get() + line * words_;
    }

    /** @p core's line holding @p line_addr, or kNoLine. */
    std::size_t findLine(CoreId core, Addr line_addr) const;
    /** The way @p core installs @p line_addr into (evicting if full). */
    std::size_t victimLine(CoreId core, Addr line_addr);

    bool l1Lookup(CoreId core, Addr line_addr);
    void l1Invalidate(CoreId core, Addr line_addr);

    MemSystemConfig config_;
    MemSystemStats stats_;
    std::uint64_t tick_ = 0; //!< LRU clock, shared by every L1 and L2.

    /*
     * Every array below starts on a host cache line (alignedArray).
     *
     * Every core's L2 tags in one set-major array: line index
     * ((set * cores) + core) * assoc + way. Each word is
     * packTag(line address, state); a probe matches only a valid
     * state, so an invalidated way keeps its stale address harmlessly.
     * With 8 ways one core's copy of a set is one host cache line, and
     * a snoop reads the other cores' copies from the same block of
     * neighbouring lines.
     */
    std::unique_ptr<std::uint64_t[], FreeDeleter> l2_tags_;
    /** LRU stamp per L2 line, same index; read only for valid lines. */
    std::unique_ptr<std::uint64_t[], FreeDeleter> l2_lru_;
    /**
     * Last writer per word, lines * words, indexed by line index. Left
     * uninitialised: a line's block is cleared when the line is
     * installed and read only while the line is valid, so building a
     * model never touches the blocks a short trace leaves unused.
     */
    std::unique_ptr<WriterRecord[], FreeDeleter> writers_;
    Addr l2_set_mask_ = 0; //!< L2 sets - 1.

    /**
     * L1 tags, core-major: ((core * sets) + set) * assoc + way. Each
     * word is (line address << 1) | 1, and 0 marks an invalid way.
     */
    std::unique_ptr<std::uint64_t[], FreeDeleter> l1_tags_;
    /** LRU stamp per L1 way, same index. */
    std::unique_ptr<std::uint64_t[], FreeDeleter> l1_lru_;
    std::uint32_t l1_sets_ = 1;
    Addr l1_set_mask_ = 0; //!< L1 sets - 1.

    std::uint32_t words_ = 1;      //!< Writer records per line.
    std::uint32_t line_shift_ = 6; //!< log2(line_bytes).
    Addr word_mask_ = 63;          //!< line_bytes - 1.
    Cycle transfer_cycles_ = 2;    //!< config_.lineTransferCycles().

    /** Memory-resident metadata (writeback_writer_metadata only). */
    std::unordered_map<Addr, std::vector<WriterRecord>> memory_writers_;
};

} // namespace act

#endif // ACT_SIM_MEMSYS_HH
