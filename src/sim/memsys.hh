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
 */

#ifndef ACT_SIM_MEMSYS_HH
#define ACT_SIM_MEMSYS_HH

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
    /**
     * One L2 line's coherence metadata. Last-writer records live in
     * the owning CacheArray's flat arena (one block of `words` records
     * per line, indexed by line position) instead of a per-line vector:
     * the access path is the simulator's hottest loop and per-line heap
     * nodes cost an extra cache miss per touch.
     */
    struct Line
    {
        Addr tag = 0;
        Mesi state = Mesi::kInvalid;
        std::uint64_t lru = 0;
    };

    /** Releases a std::malloc'ed block. */
    struct FreeDeleter
    {
        void operator()(void *block) const { std::free(block); }
    };

    struct CacheArray
    {
        std::uint32_t sets = 0;
        std::uint32_t assoc = 0;
        std::vector<Line> lines; //!< sets * assoc, set-major.
        /**
         * Last writer per word, lines * words, line-major. Left
         * uninitialised: a line's block is cleared when the line is
         * installed and read only while the line is valid, so building
         * a model never touches the blocks a short trace leaves unused.
         */
        std::unique_ptr<WriterRecord[], FreeDeleter> writers;
    };

    struct L1Array
    {
        std::uint32_t sets = 0;
        std::uint32_t assoc = 0;
        std::vector<Addr> tags;            //!< sets * assoc.
        std::vector<std::uint8_t> valid;   //!< Byte flags (bit-packed
                                           //!< vector<bool> is slower).
        std::vector<std::uint64_t> lru;
    };

    Addr lineAddr(Addr addr) const
    {
        return addr >> line_shift_;
    }

    std::uint32_t wordIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr & word_mask_) >> 2;
    }

    /** The arena block of @p line (always `words_` records). */
    WriterRecord *
    lineWriters(CacheArray &array, const Line *line)
    {
        return array.writers.get() +
               static_cast<std::size_t>(line - array.lines.data()) *
                   words_;
    }

    Line *findLine(CoreId core, Addr line_addr);
    Line &victimLine(CoreId core, Addr line_addr);

    bool l1Lookup(CoreId core, Addr line_addr, bool allocate);
    void l1Invalidate(CoreId core, Addr line_addr);

    MemSystemConfig config_;
    MemSystemStats stats_;
    std::vector<CacheArray> l2_;
    std::vector<L1Array> l1_;
    std::uint64_t tick_ = 0; //!< LRU clock.

    std::uint32_t words_ = 1;     //!< Writer records per line.
    std::uint32_t line_shift_ = 6; //!< log2(line_bytes).
    Addr word_mask_ = 63;          //!< line_bytes - 1.

    /** Memory-resident metadata (writeback_writer_metadata only). */
    std::unordered_map<Addr, std::vector<WriterRecord>> memory_writers_;
};

} // namespace act

#endif // ACT_SIM_MEMSYS_HH
