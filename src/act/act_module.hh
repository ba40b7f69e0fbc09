/**
 * @file
 * The per-processor ACT Module (AM) of Figure 4(b) / Figure 5.
 *
 * For every completed non-speculative load with a known last writer,
 * the AM forms the RAW dependence, pushes it through the Input
 * Generator Buffer, and asks its hardware neural network whether the
 * sequence of the last N dependences is valid.
 *
 *  - Online testing mode: predicted-invalid sequences are logged into
 *    the Debug Buffer and counted by the Invalid Counter. When the
 *    periodically measured misprediction rate exceeds the threshold,
 *    the AM switches to online training.
 *  - Online training mode: every dependence is taken as valid;
 *    sequences the network still calls invalid are back-propagated
 *    toward "valid" (and still logged, in case one of them really is
 *    the bug). When the rate drops below the threshold the AM returns
 *    to testing mode.
 *
 * The timing side mirrors Section IV-A: the load that produced the
 * dependence can only retire once the pipeline's input FIFO accepts
 * it, so a full FIFO back-pressures the core.
 *
 * State layout: everything mutable per run lives in an ActArena. A
 * stand-alone module owns one internally (the classic one-module,
 * one-run shape the simulator uses), but the arena can be swapped via
 * bindArena() so one module engine — config, encoder, weight
 * registers — serves many disjoint monitoring contexts. The fleet
 * service multiplexes hundreds of client streams over a handful of
 * shard modules exactly this way: each client owns an arena, the shard
 * owns the engine, and no mutable state is ever shared across shards.
 *
 * Verdict memo: onDependence keeps, per engine, a direct-mapped table
 * of recent verdicts keyed by a sequence's exact dependences and tagged
 * with the weight registers' version. A sequence seen again under
 * unchanged registers takes its activation and raw accumulator from
 * the table and skips encoding and inference; the timing model still
 * sees every sequence.
 */

#ifndef ACT_ACT_ACT_MODULE_HH
#define ACT_ACT_ACT_MODULE_HH

#include <memory>
#include <span>
#include <unordered_map>

#include "act/act_config.hh"
#include "act/buffers.hh"
#include "act/weight_store.hh"
#include "common/stats.hh"
#include "deps/encoder.hh"
#include "hwnn/pipeline.hh"

namespace act
{

/** The AM's operating mode. */
enum class ActMode : std::uint8_t
{
    kTesting,
    kTraining
};

/** Counters exposed for the benches. */
struct ActModuleStats
{
    std::uint64_t dependences = 0;     //!< Dependences observed.
    std::uint64_t predictions = 0;     //!< Sequences classified.
    std::uint64_t predicted_invalid = 0;
    std::uint64_t train_updates = 0;   //!< Back-propagation passes.
    std::uint64_t mode_switches = 0;
    std::uint64_t stalled_offers = 0;  //!< Loads delayed by a full FIFO.
    Cycle stall_cycles = 0;            //!< Total retire-stall cycles.
    std::uint64_t training_dependences = 0; //!< Seen while training.

    // Degradation accounting. The overwrite counters tally ring
    // saturation (normal for the sliding input window, real loss for
    // the Debug Buffer); the injected/quarantine counters are zero on
    // any fault-free run.
    std::uint64_t input_buffer_overwrites = 0; //!< Ring-saturated pushes.
    std::uint64_t debug_buffer_overwrites = 0; //!< Flags lost to saturation.
    std::uint64_t input_drops_injected = 0;    //!< Faulted-away deps.
    std::uint64_t debug_drops_injected = 0;    //!< Faulted-away log entries.
    std::uint64_t quarantined_weight_sets = 0; //!< Corrupt sets rejected.

    // Weight-store hardening accounting: both stay zero on any run
    // that no weight fault reaches.
    std::uint64_t repaired_weight_sets = 0; //!< Shadow-copy repairs.
    std::uint64_t quarantine_escalations = 0; //!< Distrusted tids.
};

/**
 * All per-run mutable state of one ACT Module: the two SRAM rings, the
 * misprediction-rate interval, the mode latch, the counters, and the
 * scratch the hot loop reuses. A module always operates on exactly one
 * bound arena; swapping arenas switches monitoring contexts without
 * touching the engine (weights stay put — the fleet's testing-only
 * contract — and save/restoreWeights cover the training case).
 */
struct ActArena
{
    explicit ActArena(const ActConfig &config)
        : input(config.input_buffer_entries),
          debug(config.debug_buffer_entries), rate(config.interval_length)
    {}

    InputGeneratorBuffer input;
    DebugBuffer debug;
    IntervalRate rate;
    ActMode mode = ActMode::kTesting;
    ActModuleStats stats;

    /**
     * Quarantine escalation (per run): how often each tid's stored
     * weights were quarantined. A tid quarantined twice is distrusted —
     * initThread stops consulting the store for it and goes straight
     * to training instead of silently re-entering the quarantine loop.
     */
    std::unordered_map<ThreadId, std::uint32_t> quarantines_by_tid;

    // Scratch reused across onDependence/stageDependence calls: the
    // hot loop runs once per tracked load and must not allocate per
    // call once the rings warm up.
    DependenceSequence seq_scratch;
    std::vector<double> input_scratch;
};

/** Outcome of feeding one dependence to the AM. */
struct ActOutcome
{
    bool classified = false;        //!< A full sequence was formed.
    bool predicted_invalid = false;
    double output = 0.0;            //!< NN output for the sequence.
    Cycle stall_cycles = 0;         //!< Retire delay from FIFO pressure.
};

/** Result of committing one batched (staged) prediction. */
struct StagedOutcome
{
    bool predicted_invalid = false;

    /**
     * Pre-sigmoid accumulator, read back only for flagged sequences
     * (the ranking tie-break wants the most negative output, which the
     * saturated sigmoid cannot resolve). Zero when not flagged.
     */
    double raw = 0.0;
};

/**
 * One per-core ACT Module.
 */
class ActModule
{
  public:
    /**
     * @param config  Module parameters.
     * @param encoder Prototype encoder (cloned; the AM owns its copy).
     */
    ActModule(const ActConfig &config, const DependenceEncoder &encoder);

    const ActConfig &config() const { return config_; }
    ActMode mode() const { return arena_->mode; }
    const ActModuleStats &stats() const { return arena_->stats; }
    const DebugBuffer &debugBuffer() const { return arena_->debug; }
    DebugBuffer &debugBuffer() { return arena_->debug; }
    const HwNeuralNetwork &network() const { return network_; }

    /**
     * Sequences onDependence classified from the verdict memo (without
     * encoding or inference), over the engine's lifetime.
     */
    std::uint64_t verdictHits() const { return verdict_hits_; }

    // --- Arena management -----------------------------------------

    /** A fresh arena sized for this module's configuration. */
    ActArena makeArena() const { return ActArena(config_); }

    /**
     * Operate on @p arena from now on (nullptr rebinds the internally
     * owned arena). The caller keeps @p arena alive while bound. The
     * engine — weight registers, pipeline — is untouched, so a
     * testing-mode module can round-robin arenas freely.
     */
    void
    bindArena(ActArena *arena)
    {
        arena_ = arena != nullptr ? arena : &own_arena_;
    }

    /** The currently bound arena (the internal one by default). */
    const ActArena &arena() const { return *arena_; }

    /**
     * Initialise the network for a (newly scheduled) thread: stored
     * weights if the store has them, default (zero) weights otherwise
     * — the latter force the module into online training.
     *
     * @return Number of weight registers transferred (for the ISA cost
     *         model); zero weights still count as a full transfer.
     */
    std::size_t initThread(ThreadId tid, const WeightStore &store);

    /** Read the current weights back (thread exit / context switch). */
    std::vector<double> saveWeights() const;

    /** Restore previously saved weights (context switch in). */
    void restoreWeights(const std::vector<double> &weights);

    /**
     * Write the current weights back into @p store for @p tid (thread
     * exit, Section IV-C). A set whose size does not match the store's
     * topology is skipped — the binary cannot be patched with it.
     */
    void exportWeights(WeightStore &store, ThreadId tid) const;

    /** Flush in-flight NN inputs (context switch, Section IV-D). */
    void flushPipeline();

    /**
     * Process one RAW dependence produced by a completed load.
     *
     * @param dep   The dependence (S -> L).
     * @param tid   Thread executing the load.
     * @param cycle Core cycle at which the load completed.
     */
    ActOutcome onDependence(const RawDependence &dep, ThreadId tid,
                            Cycle cycle);

    // --- Split-phase classification (fleet batcher) ----------------

    /**
     * First half of onDependence for a *testing-mode* module with no
     * timing model: push the dependence through the input ring and,
     * when a full sequence forms, encode it into the arena scratch
     * (stagedSequence()/stagedInputs()). The caller then obtains the
     * network activation — typically via HwNeuralNetwork::inferBatchFlat
     * over many staged sequences at once — and applies it with
     * commitPrediction(). stage+commit is bit-equivalent to the
     * function half of onDependence because the testing-mode forward
     * pass is pure.
     *
     * @return true when a full sequence was staged.
     */
    bool stageDependence(const RawDependence &dep);

    /** Sequence staged by the last successful stageDependence. */
    const DependenceSequence &stagedSequence() const
    {
        return arena_->seq_scratch;
    }

    /** Encoded inputs staged by the last successful stageDependence. */
    const std::vector<double> &stagedInputs() const
    {
        return arena_->input_scratch;
    }

    /**
     * Second half: account a prediction for a previously staged
     * sequence. @p inputs must be the staged encoding (for the raw
     * read-back of flagged sequences) and @p output the activation the
     * batch inference produced for it. Commits for one arena must
     * arrive in staging order.
     */
    StagedOutcome commitPrediction(const DependenceSequence &sequence,
                                   std::span<const double> inputs,
                                   double output, ThreadId tid);

  private:
    void switchMode(ActMode next);

    /**
     * Stage step shared by onDependence and stageDependence: count the
     * dependence, push it through the Input Generator Buffer and, once
     * a full sequence is buffered, read it into the arena scratch.
     * Encoding is left to the caller. @return true when a sequence was
     * formed.
     */
    inline bool stageSequence(ActArena &arena, const RawDependence &dep);

    /**
     * Commit step shared by onDependence and commitPrediction: count
     * the prediction, log a @p flagged sequence with its @p raw
     * accumulator value into the Debug Buffer, and feed the
     * misprediction-rate interval that drives the mode latch.
     */
    inline void commitSequence(ActArena &arena, bool flagged, double raw,
                               const DependenceSequence &sequence,
                               ThreadId tid);

    /** Quarantine bookkeeping shared by initThread/restoreWeights. */
    void recordQuarantine(ThreadId tid, const char *where);

    /** True when @p weights can be loaded without UB (finite, in the
     *  Q15.16 range, count matching the topology). */
    bool weightsUsable(std::span<const double> weights) const;

    /** One verdict-memo entry (its dependences live in memo_keys_). */
    struct Verdict
    {
        std::uint64_t version = 0; //!< Register version; 0 = empty.
        double output = 0.0;       //!< Output activation.
        double raw = 0.0;          //!< Pre-sigmoid accumulator.
    };

    ActConfig config_;
    std::unique_ptr<DependenceEncoder> encoder_;
    HwNeuralNetwork network_;

    /**
     * The verdict memo, allocated by the first onDependence: slot s
     * holds memo_verdicts_[s] and the sequence_length dependences from
     * memo_keys_[s * sequence_length].
     */
    std::vector<Verdict> memo_verdicts_;
    std::vector<RawDependence> memo_keys_;
    std::uint64_t verdict_hits_ = 0;

    ActArena own_arena_;
    ActArena *arena_;
};

} // namespace act

#endif // ACT_ACT_ACT_MODULE_HH
