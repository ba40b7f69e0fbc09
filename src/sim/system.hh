/**
 * @file
 * The full simulated machine: cores + memory system + per-core ACT
 * Modules + the OS/thread-library glue of Sections IV-C and IV-D
 * (deterministic thread ids, weight initialisation at thread start,
 * weight save at thread exit, context-switch save/restore and pipeline
 * flush).
 */

#ifndef ACT_SIM_SYSTEM_HH
#define ACT_SIM_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "act/act_module.hh"
#include "sim/core.hh"
#include "sim/memsys.hh"
#include "trace/trace.hh"

namespace act
{

/** Whole-machine configuration. */
struct SystemConfig
{
    MemSystemConfig mem;
    CoreConfig core;

    /** Attach ACT Modules (off = the baseline machine). */
    bool act_enabled = true;
    ActConfig act;
};

/** Whole-machine statistics after a run. */
struct SystemStats
{
    Cycle cycles = 0; //!< Slowest core's final cycle.
    std::uint64_t instructions = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t weight_transfer_instructions = 0;
    MemSystemStats mem;
    ActModuleStats act; //!< Summed over all modules.
    /** Sequences classified from a verdict memo, summed over modules. */
    std::uint64_t verdict_hits = 0;
    std::vector<Cycle> core_cycles;
};

/**
 * The simulated multiprocessor.
 */
class System
{
  public:
    /**
     * @param config  Machine parameters.
     * @param encoder Prototype dependence encoder for the AMs.
     * @param weights Binary-resident weights (copied; updated weights
     *                are readable via weightStore() after the run).
     */
    System(const SystemConfig &config, const DependenceEncoder &encoder,
           const WeightStore &weights);

    /** Convenience: ACT disabled (baseline machine). */
    explicit System(const SystemConfig &config);

    /** Process one event (events must arrive in trace order). */
    void handle(const TraceEvent &event);

    /** Run a whole recorded trace. */
    void run(const Trace &trace);

    /** Statistics accumulated so far. */
    SystemStats stats() const;

    /** The (possibly retrained) weights after the run. */
    const WeightStore &weightStore() const { return weights_; }

    /** Per-core ACT Module access (null when ACT is disabled). */
    const ActModule *module(CoreId core) const;

    /**
     * All Debug Buffer entries across cores, in logging order — the
     * log the offline postprocessing consumes after a failure.
     */
    std::vector<DebugEntry> collectDebugEntries() const;

    const MemorySystem &memory() const { return mem_; }

  private:
    CoreId coreOf(ThreadId tid) const
    {
        return tid % config_.mem.cores;
    }

    /** Make @p tid the thread running on @p core (switch if needed). */
    void schedule(CoreId core, ThreadId tid);

    SystemConfig config_;
    MemorySystem mem_;
    std::vector<Core> cores_;
    std::vector<std::unique_ptr<ActModule>> modules_;
    WeightStore weights_;

    /** Thread currently scheduled on each core. */
    std::vector<ThreadId> running_;

    /** Saved AM weights of descheduled threads. */
    std::unordered_map<ThreadId, std::vector<double>> switched_out_;

    std::uint64_t context_switches_ = 0;
    std::uint64_t weight_transfer_instructions_ = 0;
};

} // namespace act

#endif // ACT_SIM_SYSTEM_HH
