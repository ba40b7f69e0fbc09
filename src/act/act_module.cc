#include "act/act_module.hh"

#include <algorithm>

#include "act/weight_guard.hh"
#include "analysis/config_check.hh"
#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{

namespace
{

/** Quarantines of one tid before the store is distrusted for it. */
constexpr std::uint32_t kQuarantineEscalationThreshold = 2;

/** log2 of the verdict memo's slot count. */
constexpr unsigned kVerdictSlotBits = 11;

/**
 * Verdict-memo slot of @p sequence: a multiply-mix of its dependences'
 * PCs and labels, top bits taken. Deterministic, with no address input.
 */
inline std::size_t
verdictSlot(const DependenceSequence &sequence)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    std::uint64_t h = 0;
    for (const RawDependence &dep : sequence.deps) {
        h = (h ^ dep.store_pc) * kMul;
        h = (h ^ (dep.load_pc << 1) ^ (dep.inter_thread ? 1 : 0)) * kMul;
    }
    return static_cast<std::size_t>(h >> (64 - kVerdictSlotBits));
}

/**
 * Gate construction on the full configuration contract. Runs before
 * the network is built (the hardware network asserts on bad
 * topologies) and reports every violation, naming the offending knob
 * and value, instead of tripping a bare assert on the first one.
 */
const ActConfig &
checkedConfig(const ActConfig &config, const DependenceEncoder &encoder)
{
    const auto findings = validateActConfig(config, encoder.width());
    if (!clean(findings))
        ACT_FATAL("invalid ActConfig:\n" << formatFindings(findings));
    return config;
}

} // namespace

ActModule::ActModule(const ActConfig &config,
                     const DependenceEncoder &encoder)
    : config_(checkedConfig(config, encoder)), encoder_(encoder.clone()),
      network_(config.hw, config.topology), own_arena_(config_),
      arena_(&own_arena_)
{
}

bool
ActModule::weightsUsable(std::span<const double> weights) const
{
    // loadWeights() quantises through an int32 cast, so NaN/Inf or
    // out-of-range values (e.g. from an injected bit flip in the
    // store) would be undefined behaviour — they must be rejected
    // before they reach the network.
    return clean(validateWeights(network_.topology(), weights));
}

void
ActModule::recordQuarantine(ThreadId tid, const char *where)
{
    // Degradation, not death: a corrupt stored set is quarantined and
    // the module retrains from scratch, exactly as if the store had no
    // entry for the thread. The counter/log make the event visible
    // beyond ActModuleStats; the per-tid tally drives escalation so a
    // rotten store entry cannot trap the module in a silent
    // quarantine-retrain loop.
    ActArena &arena = *arena_;
    ++arena.stats.quarantined_weight_sets;
    static const telemetry::Counter quarantines =
        telemetry::MetricsRegistry::global().counter(
            "act.weight_quarantine");
    quarantines.inc();
    telemetry::SpanTracer::global().instant(
        "weight_quarantine", "act",
        {telemetry::arg("tid", std::uint64_t{tid})});
    logWarnEvent("act.weight_quarantine",
                 {logField("tid", std::uint64_t{tid}),
                  logField("where", where)});
    const std::uint32_t count = ++arena.quarantines_by_tid[tid];
    if (count == kQuarantineEscalationThreshold) {
        ++arena.stats.quarantine_escalations;
        static const telemetry::Counter escalations =
            telemetry::MetricsRegistry::global().counter(
                "act.quarantine_escalations");
        escalations.inc();
        logWarnEvent("act.quarantine_escalation",
                     {logField("tid", std::uint64_t{tid}),
                      logField("quarantines", std::uint64_t{count})});
    }
}

std::size_t
ActModule::initThread(ThreadId tid, const WeightStore &store)
{
    ActArena &arena = *arena_;

    // Escalated tids skip the store entirely: their entries already
    // failed quarantine repeatedly, so the module goes straight to
    // online training instead of reloading known-bad weights.
    const auto seen = arena.quarantines_by_tid.find(tid);
    const bool distrusted =
        seen != arena.quarantines_by_tid.end() &&
        seen->second >= kQuarantineEscalationThreshold;

    auto weights = distrusted ? std::nullopt : store.get(tid);
    if (weights && config_.protector &&
        config_.protector->inspect(tid, *weights)) {
        ++arena.stats.repaired_weight_sets;
        static const telemetry::Counter repairs =
            telemetry::MetricsRegistry::global().counter(
                "act.weight_repairs");
        repairs.inc();
        logWarnEvent("act.weight_repair",
                     {logField("tid", std::uint64_t{tid})});
    }
    const bool usable = weights && weightsUsable(*weights);
    if (weights && !usable)
        recordQuarantine(tid, "init");
    if (usable) {
        network_.loadWeights(*weights);
        arena.mode = ActMode::kTesting;
    } else {
        // Default weights: the all-zero network outputs 0.5 for every
        // input, classifying everything as (barely) valid until the
        // first measured interval drives the module into training.
        std::vector<double> zeros(network_.weightCount(), 0.0);
        network_.loadWeights(zeros);
        switchMode(ActMode::kTraining);
    }

    arena.input.clear();
    arena.rate.resetInterval();
    return network_.weightCount();
}

std::vector<double>
ActModule::saveWeights() const
{
    return network_.storeWeights();
}

void
ActModule::restoreWeights(const std::vector<double> &weights)
{
    if (weightsUsable(weights)) {
        network_.loadWeights(weights);
    } else {
        ++arena_->stats.quarantined_weight_sets;
        static const telemetry::Counter quarantines =
            telemetry::MetricsRegistry::global().counter(
                "act.weight_quarantine");
        quarantines.inc();
        telemetry::SpanTracer::global().instant("weight_quarantine",
                                                "act", {});
        logWarnEvent("act.weight_quarantine",
                     {logField("where", "restore")});
        std::vector<double> zeros(network_.weightCount(), 0.0);
        network_.loadWeights(zeros);
        switchMode(ActMode::kTraining);
    }
    arena_->input.clear();
}

void
ActModule::exportWeights(WeightStore &store, ThreadId tid) const
{
    std::vector<double> w = network_.storeWeights();
    if (w.size() == store.weightCount())
        store.set(tid, std::move(w));
}

void
ActModule::flushPipeline()
{
    network_.flush();
}

void
ActModule::switchMode(ActMode next)
{
    if (arena_->mode == next)
        return;
    arena_->mode = next;
    ++arena_->stats.mode_switches;
    // Mode flips happen at most once per misprediction-rate interval,
    // so an instant event here cannot perturb the per-event hot loop.
    telemetry::SpanTracer::global().instant(
        "mode_switch", "act",
        {telemetry::arg("to", next == ActMode::kTraining ? "training"
                                                         : "testing")});
    arena_->rate.resetInterval();
}

// The stage and commit steps below are the inner loop of every
// monitored load; they are forced inline so that sharing them between
// the one-shot and the split-phase paths costs no call.

[[gnu::always_inline]] inline bool
ActModule::stageSequence(ActArena &arena, const RawDependence &dep)
{
    ++arena.stats.dependences;
    if (arena.mode == ActMode::kTraining)
        ++arena.stats.training_dependences;

    if (config_.faults && config_.faults->dropInputDependence()) {
        // Injected Input Generator fault: the dependence never reaches
        // the buffer, as if the hardware write port glitched.
        ++arena.stats.input_drops_injected;
        return false;
    }
    if (arena.input.push(dep))
        ++arena.stats.input_buffer_overwrites;
    return arena.input.lastSequence(config_.sequence_length,
                                    arena.seq_scratch);
}

[[gnu::always_inline]] inline void
ActModule::commitSequence(ActArena &arena, bool flagged, double raw,
                          const DependenceSequence &sequence, ThreadId tid)
{
    ++arena.stats.predictions;
    if (flagged) {
        ++arena.stats.predicted_invalid;
        if (config_.faults && config_.faults->dropDebugLog()) {
            // Injected Debug Buffer fault: the flagged sequence is
            // silently lost before it can be logged.
            ++arena.stats.debug_drops_injected;
        } else if (arena.debug.log(sequence, raw, arena.stats.predictions,
                                   tid)) {
            ++arena.stats.debug_buffer_overwrites;
        }
    }

    // The paper's mode latch (Section III-C): a prediction of "invalid"
    // that the execution survives counts as a misprediction, and each
    // completed interval compares its rate against the one threshold.
    // Testing switches to training above it; training returns to
    // testing at or below it.
    if (arena.rate.record(flagged)) {
        const bool over =
            arena.rate.lastRate() > config_.misprediction_threshold;
        if (over != (arena.mode == ActMode::kTraining))
            switchMode(over ? ActMode::kTraining : ActMode::kTesting);
    }
}

ActOutcome
ActModule::onDependence(const RawDependence &dep, ThreadId tid,
                        Cycle cycle)
{
    ActOutcome outcome;
    ActArena &arena = *arena_;
    if (!stageSequence(arena, dep))
        return outcome;

    // Timing: the load retires only once the input FIFO accepts the
    // sequence. A full FIFO stalls it (Section III-C / IV-A).
    const bool training = arena.mode == ActMode::kTraining;
    Cycle now = cycle;
    for (;;) {
        const AcceptResult accepted = network_.offer(now, training);
        if (accepted.accepted)
            break;
        ++arena.stats.stalled_offers;
        ACT_ASSERT(accepted.retry_at > now);
        outcome.stall_cycles += accepted.retry_at - now;
        arena.stats.stall_cycles += accepted.retry_at - now;
        now = accepted.retry_at;
    }

    // Function: classify the sequence. The forward pass is a pure
    // function of the encoded inputs and the weight registers, and the
    // encoding a pure function of the dependences (a dictionary code
    // never changes once assigned, and every dependence of a memoised
    // sequence was encoded by the miss that filled its slot). So a slot
    // whose dependences and register version both match holds exactly
    // the verdict a fresh encode and forward pass would produce.
    const DependenceSequence &sequence = arena.seq_scratch;
    std::vector<double> &inputs = arena.input_scratch;
    const std::size_t n = config_.sequence_length;
    if (memo_verdicts_.empty()) [[unlikely]] {
        memo_verdicts_.resize(std::size_t{1} << kVerdictSlotBits);
        memo_keys_.resize(memo_verdicts_.size() * n);
    }
    const std::size_t slot = verdictSlot(sequence);
    Verdict &verdict = memo_verdicts_[slot];
    RawDependence *const key = &memo_keys_[slot * n];
    bool encoded = false;
    if (verdict.version == network_.version() &&
        std::equal(sequence.deps.begin(), sequence.deps.end(), key)) {
        ++verdict_hits_;
    } else {
        encoder_->encodeSequenceInto(sequence, inputs);
        encoded = true;
        verdict.output = network_.inferWithRaw(inputs, verdict.raw);
        verdict.version = network_.version();
        std::copy(sequence.deps.begin(), sequence.deps.end(), key);
    }
    outcome.classified = true;
    outcome.output = verdict.output;
    outcome.predicted_invalid = outcome.output < 0.5;

    // In training mode all dependences are presumed valid, so the
    // network learns the ones it would have rejected.
    //
    // The Debug Buffer records the raw accumulator value: the ranking
    // tie-break wants "the most negative output", which the saturated
    // sigmoid cannot resolve. In testing mode the forward pass already
    // produced it; in training mode the weights just moved, so a
    // flagged sequence's raw value is re-read from the updated network
    // (what the hardware would log after the back-propagation pass),
    // and that read refills the slot under the new register version.
    if (training && outcome.predicted_invalid) {
        if (!encoded)
            encoder_->encodeSequenceInto(sequence, inputs);
        network_.train(inputs, 1.0, config_.learning_rate);
        ++arena.stats.train_updates;
        verdict.output = network_.inferWithRaw(inputs, verdict.raw);
        verdict.version = network_.version();
    }
    commitSequence(arena, outcome.predicted_invalid, verdict.raw, sequence,
                   tid);
    return outcome;
}

bool
ActModule::stageDependence(const RawDependence &dep)
{
    // The split-phase path has no training half: commits never touch
    // the weight registers, which is what lets many arenas share one
    // engine. Callers keep the module in testing mode by construction
    // (the fleet pins the rate interval unreachably long).
    ACT_ASSERT(arena_->mode == ActMode::kTesting);
    ActArena &arena = *arena_;
    if (!stageSequence(arena, dep))
        return false;
    encoder_->encodeSequenceInto(arena.seq_scratch, arena.input_scratch);
    return true;
}

StagedOutcome
ActModule::commitPrediction(const DependenceSequence &sequence,
                            std::span<const double> inputs, double output,
                            ThreadId tid)
{
    ACT_ASSERT(arena_->mode == ActMode::kTesting);
    StagedOutcome outcome;
    outcome.predicted_invalid = output < 0.5;
    // Flagged sequences are rare (the whole premise of the Debug
    // Buffer), so the raw accumulator re-read — a pure forward pass
    // over the same weights the batch inference used — stays off the
    // common path.
    if (outcome.predicted_invalid)
        network_.inferWithRaw(inputs, outcome.raw);
    commitSequence(*arena_, outcome.predicted_invalid, outcome.raw,
                   sequence, tid);
    return outcome;
}

} // namespace act
