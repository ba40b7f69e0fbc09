#include "act/act_module.hh"

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

/**
 * Gate construction on the full configuration contract. Runs before
 * any member is built (the hardware network asserts on bad topologies)
 * and reports every violation, naming the offending knob and value,
 * instead of tripping a bare assert on the first one.
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
    for (std::size_t m = 1; m < config_.ensemble.members; ++m)
        extras_.emplace_back(config_.hw, config_.topology);
}

bool
ActModule::weightsUsable(std::span<const double> weights) const
{
    // loadWeights() quantises through an int32 cast, so NaN/Inf or
    // out-of-range values (e.g. from an injected bit flip in the
    // store) would be undefined behaviour — they must be rejected
    // before they reach the network. Validation runs against the
    // network's current topology, which only diverges from the
    // configured one after a dynamic-topology resize.
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
    if (weights && network_.topology().hidden != config_.topology.hidden &&
        weights->size() != network_.weightCount()) {
        // After a dynamic-topology resize the binary's stored sets no
        // longer fit the network; that is a size change, not
        // corruption, so fall back to training without quarantining.
        weights.reset();
    }
    if (weights && config_.protector &&
        config_.protector->inspect(weightSetId(tid, 0), *weights)) {
        ++arena.stats.repaired_weight_sets;
        static const telemetry::Counter repairs =
            telemetry::MetricsRegistry::global().counter(
                "act.weight_repairs");
        repairs.inc();
        logWarnEvent("act.weight_repair",
                     {logField("tid", std::uint64_t{tid}),
                      logField("member", std::uint64_t{0})});
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

    // Ensemble extras: each member loads its own stored set; a member
    // with no (usable) set of its own falls back to member 0's, which
    // degenerates that member to a unanimous copy instead of an
    // always-valid zero network that would starve the quorum.
    for (std::size_t m = 1; m < memberCount(); ++m) {
        auto mw = distrusted ? std::nullopt : store.getMember(tid, m);
        if (mw && mw->size() != network_.weightCount())
            mw.reset();
        if (mw && config_.protector &&
            config_.protector->inspect(weightSetId(tid, m), *mw)) {
            ++arena.stats.repaired_weight_sets;
            static const telemetry::Counter repairs =
                telemetry::MetricsRegistry::global().counter(
                    "act.weight_repairs");
            repairs.inc();
            logWarnEvent("act.weight_repair",
                         {logField("tid", std::uint64_t{tid}),
                          logField("member", std::uint64_t{m})});
        }
        const bool musable = mw && weightsUsable(*mw);
        if (mw && !musable)
            recordQuarantine(tid, "init");
        if (musable) {
            extras_[m - 1].loadWeights(*mw);
        } else if (usable) {
            extras_[m - 1].loadWeights(*weights);
        } else {
            std::vector<double> zeros(network_.weightCount(), 0.0);
            extras_[m - 1].loadWeights(zeros);
        }
    }

    arena.input.clear();
    arena.rate.resetInterval();
    return network_.weightCount() * memberCount();
}

std::vector<double>
ActModule::saveWeights() const
{
    std::vector<double> all = network_.storeWeights();
    for (const HwNeuralNetwork &extra : extras_) {
        const std::vector<double> w = extra.storeWeights();
        all.insert(all.end(), w.begin(), w.end());
    }
    return all;
}

void
ActModule::restoreWeights(const std::vector<double> &weights)
{
    const std::size_t chunk = network_.weightCount();
    const std::size_t members = memberCount();
    bool usable = weights.size() == chunk * members;
    for (std::size_t m = 0; usable && m < members; ++m) {
        usable = weightsUsable(
            std::span<const double>(weights).subspan(m * chunk, chunk));
    }
    if (usable) {
        for (std::size_t m = 0; m < members; ++m) {
            const auto part =
                std::span<const double>(weights).subspan(m * chunk, chunk);
            if (m == 0)
                network_.loadWeights(part);
            else
                extras_[m - 1].loadWeights(part);
        }
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
        std::vector<double> zeros(chunk, 0.0);
        network_.loadWeights(zeros);
        for (HwNeuralNetwork &extra : extras_)
            extra.loadWeights(zeros);
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
    for (std::size_t m = 1; m < memberCount(); ++m) {
        std::vector<double> mw = extras_[m - 1].storeWeights();
        if (mw.size() == store.weightCount())
            store.setMember(tid, m, std::move(mw));
    }
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

void
ActModule::resizeHidden(std::size_t hidden)
{
    const std::size_t before = network_.topology().hidden;
    if (hidden == before || hidden == 0)
        return;
    const Topology next{config_.topology.inputs, hidden};
    network_.setTopology(next); // zeroes the weights
    for (HwNeuralNetwork &extra : extras_)
        extra.setTopology(next);
    if (hidden > before)
        ++arena_->stats.topology_grows;
    else
        ++arena_->stats.topology_shrinks;
    telemetry::SpanTracer::global().instant(
        "topology_resize", "act",
        {telemetry::arg("hidden", std::uint64_t{hidden})});
    logWarnEvent("act.topology_resize",
                 {logField("from", std::uint64_t{before}),
                  logField("to", std::uint64_t{hidden})});
    // Fresh zero weights classify everything as (barely) valid; the
    // module must retrain at the new size before testing again.
    if (arena_->mode != ActMode::kTraining)
        switchMode(ActMode::kTraining);
    else
        arena_->rate.resetInterval();
}

void
ActModule::onIntervalComplete()
{
    ActArena &arena = *arena_;
    // Members share the M-neuron hardware bank, so the growth ceiling
    // is the per-member slice of it, not the whole bank.
    const std::size_t max_hidden =
        config_.hw.neuron.max_inputs / memberCount();
    const ModeDecision decision = modeControllerStep(
        config_.controller, config_.misprediction_threshold, arena.ctl,
        arena.mode == ActMode::kTraining, arena.rate.lastRate(),
        network_.topology().hidden, max_hidden);
    if (decision.dwell_suppressed)
        ++arena.stats.dwell_suppressed_switches;
    if (decision.switch_mode) {
        switchMode(arena.mode == ActMode::kTesting ? ActMode::kTraining
                                                   : ActMode::kTesting);
    } else if (decision.grow) {
        resizeHidden(network_.topology().hidden + 1);
    } else if (decision.shrink) {
        resizeHidden(network_.topology().hidden - 1);
    }
}

ActOutcome
ActModule::onDependence(const RawDependence &dep, ThreadId tid,
                        Cycle cycle)
{
    ActOutcome outcome;
    ActArena &arena = *arena_;
    ++arena.stats.dependences;
    if (arena.mode == ActMode::kTraining)
        ++arena.stats.training_dependences;

    if (config_.faults && config_.faults->dropInputDependence()) {
        // Injected Input Generator fault: the dependence never reaches
        // the buffer, as if the hardware write port glitched.
        ++arena.stats.input_drops_injected;
        return outcome;
    }
    if (arena.input.push(dep))
        ++arena.stats.input_buffer_overwrites;
    if (!arena.input.lastSequence(config_.sequence_length,
                                  arena.seq_scratch))
        return outcome;
    const DependenceSequence &sequence = arena.seq_scratch;

    // Timing: the load retires only once the input FIFO accepts the
    // sequence. A full FIFO stalls it (Section III-C / IV-A). The
    // ensemble shares the M-neuron bank, so one acceptance covers all
    // members — the budget check in validateActConfig guarantees they
    // fit side by side.
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

    // Function: classify the sequence (and learn from it in training
    // mode).
    encoder_->encodeSequenceInto(sequence, arena.input_scratch);
    const std::vector<double> &inputs = arena.input_scratch;
    outcome.classified = true;
    ++arena.stats.predictions;

    double output = 0.0;
    double raw = 0.0;
    if (extras_.empty()) {
        if (training) {
            // All dependences are presumed valid; the network learns
            // the ones it would have rejected.
            output = network_.infer(inputs);
            if (output < 0.5) {
                network_.train(inputs, 1.0, config_.learning_rate);
                ++arena.stats.train_updates;
            }
        } else {
            output = network_.inferWithRaw(inputs, raw);
        }
        outcome.predicted_invalid = output < 0.5;
    } else {
        // Ensemble: every member classifies (and, in training mode,
        // learns) independently; the suspect flag is the quorum vote.
        std::size_t votes = 0;
        if (training) {
            output = network_.infer(inputs);
            if (output < 0.5) {
                ++votes;
                network_.train(inputs, 1.0, config_.learning_rate);
                ++arena.stats.train_updates;
            }
            for (HwNeuralNetwork &extra : extras_) {
                if (extra.infer(inputs) < 0.5) {
                    ++votes;
                    extra.train(inputs, 1.0, config_.learning_rate);
                    ++arena.stats.train_updates;
                }
            }
        } else {
            output = network_.inferWithRaw(inputs, raw);
            if (output < 0.5)
                ++votes;
            for (const HwNeuralNetwork &extra : extras_) {
                if (extra.infer(inputs) < 0.5)
                    ++votes;
            }
        }
        outcome.predicted_invalid = votes >= quorum();
        accountVotes(arena, votes, output < 0.5,
                     outcome.predicted_invalid);
    }
    outcome.output = output;

    if (outcome.predicted_invalid) {
        ++arena.stats.predicted_invalid;
        // The Debug Buffer records the raw accumulator value: the
        // ranking tie-break wants "the most negative output", which
        // the saturated sigmoid cannot resolve. In training mode the
        // weights just moved, so the raw value is re-read from the
        // updated network (matching what the hardware would log after
        // the back-propagation pass); in testing mode the forward pass
        // already produced it.
        if (config_.faults && config_.faults->dropDebugLog()) {
            // Injected Debug Buffer fault: the flagged sequence is
            // silently lost before it can be logged.
            ++arena.stats.debug_drops_injected;
        } else {
            if (training)
                network_.inferWithRaw(inputs, raw);
            if (arena.debug.log(DebugEntry{sequence, raw,
                                           arena.stats.predictions, tid}))
                ++arena.stats.debug_buffer_overwrites;
        }
    }

    // Periodic misprediction-rate check drives the mode switches. A
    // prediction of "invalid" that the execution survives counts as a
    // misprediction (Section III-C).
    if (arena.rate.record(outcome.predicted_invalid))
        onIntervalComplete();
    return outcome;
}

void
ActModule::accountVotes(ActArena &arena, std::size_t votes,
                        bool member0_invalid, bool flagged)
{
    const std::size_t members = memberCount();
    const bool unanimous = votes == 0 || votes == members;
    if (!unanimous)
        ++arena.stats.ensemble_disagreements;
    if (member0_invalid != flagged)
        ++arena.stats.quorum_overrides;
    const double beta = config_.ensemble.health_beta;
    arena.ensemble_health = (1.0 - beta) * arena.ensemble_health +
                            beta * (unanimous ? 1.0 : 0.0);
}

bool
ActModule::stageDependence(const RawDependence &dep)
{
    ActArena &arena = *arena_;
    // The split-phase path has no training half: commits never touch
    // the weight registers, which is what lets many arenas share one
    // engine. Callers keep the module in testing mode by construction
    // (the fleet pins the rate interval unreachably long).
    ACT_ASSERT(arena.mode == ActMode::kTesting);
    ++arena.stats.dependences;

    if (config_.faults && config_.faults->dropInputDependence()) {
        ++arena.stats.input_drops_injected;
        return false;
    }
    if (arena.input.push(dep))
        ++arena.stats.input_buffer_overwrites;
    if (!arena.input.lastSequence(config_.sequence_length,
                                  arena.seq_scratch))
        return false;
    encoder_->encodeSequenceInto(arena.seq_scratch, arena.input_scratch);
    return true;
}

StagedOutcome
ActModule::commitPrediction(const DependenceSequence &sequence,
                            std::span<const double> inputs, double output,
                            ThreadId tid)
{
    ActArena &arena = *arena_;
    ACT_ASSERT(arena.mode == ActMode::kTesting);
    StagedOutcome outcome;
    ++arena.stats.predictions;
    outcome.predicted_invalid = output < 0.5;

    if (outcome.predicted_invalid) {
        ++arena.stats.predicted_invalid;
        // Flagged sequences are rare (the whole premise of the Debug
        // Buffer), so the raw accumulator re-read — a pure forward
        // pass over the same weights the batch inference used — stays
        // off the common path.
        network_.inferWithRaw(inputs, outcome.raw);
        if (config_.faults && config_.faults->dropDebugLog()) {
            ++arena.stats.debug_drops_injected;
        } else if (arena.debug.log(DebugEntry{sequence, outcome.raw,
                                              arena.stats.predictions,
                                              tid})) {
            ++arena.stats.debug_buffer_overwrites;
        }
    }

    if (arena.rate.record(outcome.predicted_invalid))
        onIntervalComplete();
    return outcome;
}

StagedOutcome
ActModule::commitEnsemble(const DependenceSequence &sequence,
                          std::span<const double> inputs,
                          std::span<const double> outputs, ThreadId tid)
{
    ACT_ASSERT(outputs.size() == memberCount());
    if (extras_.empty())
        return commitPrediction(sequence, inputs, outputs[0], tid);

    ActArena &arena = *arena_;
    ACT_ASSERT(arena.mode == ActMode::kTesting);
    StagedOutcome outcome;
    ++arena.stats.predictions;
    std::size_t votes = 0;
    for (const double output : outputs) {
        if (output < 0.5)
            ++votes;
    }
    outcome.predicted_invalid = votes >= quorum();
    accountVotes(arena, votes, outputs[0] < 0.5,
                 outcome.predicted_invalid);

    if (outcome.predicted_invalid) {
        ++arena.stats.predicted_invalid;
        network_.inferWithRaw(inputs, outcome.raw);
        if (config_.faults && config_.faults->dropDebugLog()) {
            ++arena.stats.debug_drops_injected;
        } else if (arena.debug.log(DebugEntry{sequence, outcome.raw,
                                              arena.stats.predictions,
                                              tid})) {
            ++arena.stats.debug_buffer_overwrites;
        }
    }

    if (arena.rate.record(outcome.predicted_invalid))
        onIntervalComplete();
    return outcome;
}

} // namespace act
