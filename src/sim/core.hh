/**
 * @file
 * Per-core timing model.
 *
 * Table III's cores are 2-issue / 3-retire out-of-order machines with
 * a 140-entry ROB. This model keeps the throughput-relevant parts:
 * issue-width-limited progress on plain instructions, blocking load
 * latency from the memory system (stores drain through a store
 * buffer), and explicit retire stalls injected by the ACT Module when
 * its input FIFO back-pressures a completed load. Full ROB occupancy
 * simulation is intentionally out of scope; the quantity the benches
 * report — the *relative* overhead of enabling ACT — is governed by
 * the stall terms this model does capture.
 */

#ifndef ACT_SIM_CORE_HH
#define ACT_SIM_CORE_HH

#include <cstdint>

#include "common/types.hh"

namespace act
{

/** Core parameters (Table III). */
struct CoreConfig
{
    std::uint32_t issue_width = 2; //!< A power of two.
    std::uint32_t retire_width = 3;
    std::uint32_t rob_entries = 140;

    /** Cycles charged for a context switch (pipeline + AM flush). */
    Cycle context_switch_flush = 60;
};

/** Per-core running counters. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycle load_stall_cycles = 0;
    Cycle act_stall_cycles = 0;
};

/** One simulated core's clock and counters. */
class Core
{
  public:
    /** @pre config.issue_width is a power of two (aborts otherwise). */
    explicit Core(const CoreConfig &config);

    Cycle cycle() const { return cycle_; }
    const CoreStats &stats() const { return stats_; }

    /** Issue @p count plain instructions (issue-width limited). */
    void advanceInstructions(std::uint64_t count);

    /** A load completed after @p latency cycles (blocking). */
    void completeLoad(Cycle latency);

    /** A store retired into the store buffer (latency hidden). */
    void completeStore();

    /** Stall the retire stage (ACT FIFO back-pressure). */
    void actStall(Cycle cycles);

    /** Charge a context-switch flush. */
    void contextSwitch();

    /** Force the clock to at least @p cycle (cross-core hand-off). */
    void syncTo(Cycle cycle);

  private:
    CoreConfig config_;
    unsigned issue_shift_ = 0; //!< log2(issue_width).
    Cycle cycle_ = 0;
    CoreStats stats_;
};

} // namespace act

#endif // ACT_SIM_CORE_HH
