#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{

System::System(const SystemConfig &config, const DependenceEncoder &encoder,
               const WeightStore &weights)
    : config_(config), mem_(config.mem), weights_(weights)
{
    cores_.assign(config_.mem.cores, Core(config_.core));
    running_.assign(config_.mem.cores, kInvalidThread);
    if (config_.act_enabled) {
        modules_.reserve(config_.mem.cores);
        for (CoreId c = 0; c < config_.mem.cores; ++c)
            modules_.push_back(
                std::make_unique<ActModule>(config_.act, encoder));
    }
}

System::System(const SystemConfig &config)
    : config_(config), mem_(config.mem)
{
    config_.act_enabled = false;
    cores_.assign(config_.mem.cores, Core(config_.core));
    running_.assign(config_.mem.cores, kInvalidThread);
}

void
System::schedule(CoreId core, ThreadId tid)
{
    if (running_[core] == tid)
        return;

    Core &cpu = cores_[core];
    if (running_[core] != kInvalidThread) {
        ++context_switches_;
        cpu.contextSwitch();
        if (config_.act_enabled) {
            ActModule &am = *modules_[core];
            am.flushPipeline();
            switched_out_[running_[core]] = am.saveWeights();
            const auto w = am.network().weightCount();
            weight_transfer_instructions_ +=
                IsaCostModel::weightTransferInstructions(w);
            cpu.advanceInstructions(
                IsaCostModel::weightTransferInstructions(w));
        }
    }
    running_[core] = tid;
    if (config_.act_enabled) {
        ActModule &am = *modules_[core];
        std::size_t transferred = 0;
        if (const auto it = switched_out_.find(tid);
            it != switched_out_.end()) {
            am.restoreWeights(it->second);
            transferred = it->second.size();
        } else {
            transferred = am.initThread(tid, weights_);
        }
        weight_transfer_instructions_ +=
            IsaCostModel::weightTransferInstructions(transferred);
        cpu.advanceInstructions(
            IsaCostModel::weightTransferInstructions(transferred));
    }
}

void
System::handle(const TraceEvent &event)
{
    const CoreId core_id = coreOf(event.tid);
    Core &cpu = cores_[core_id];
    schedule(core_id, event.tid);

    if (event.gap > 0)
        cpu.advanceInstructions(event.gap);

    switch (event.kind) {
      case EventKind::kStore: {
        mem_.access(core_id, event);
        cpu.completeStore();
        break;
      }
      case EventKind::kLoad: {
        const MemAccess access = mem_.access(core_id, event);
        cpu.completeLoad(access.latency);
        if (config_.act_enabled && !event.stack && access.last_writer) {
            const RawDependence dep{
                access.last_writer->pc, event.pc,
                access.last_writer->tid != event.tid};
            const ActOutcome outcome = modules_[core_id]->onDependence(
                dep, event.tid, cpu.cycle());
            if (outcome.stall_cycles > 0)
                cpu.actStall(outcome.stall_cycles);
        }
        break;
      }
      case EventKind::kBranch: {
        cpu.advanceInstructions(1);
        break;
      }
      case EventKind::kLock:
      case EventKind::kUnlock: {
        // Model the lock word access as a store (an RMW that needs
        // ownership).
        TraceEvent rmw = event;
        rmw.kind = EventKind::kStore;
        rmw.addr = event.addr;
        mem_.access(core_id, rmw);
        cpu.completeStore();
        break;
      }
      case EventKind::kThreadCreate: {
        cpu.advanceInstructions(20); // spawn path
        break;
      }
      case EventKind::kThreadExit: {
        if (config_.act_enabled) {
            // pthread_exit reads the weights back with ldwt and logs
            // them so the binary can be patched (Section IV-C).
            ActModule &am = *modules_[core_id];
            am.exportWeights(weights_, event.tid);
            const auto w = am.network().weightCount();
            weight_transfer_instructions_ +=
                IsaCostModel::weightTransferInstructions(w);
            cpu.advanceInstructions(
                IsaCostModel::weightTransferInstructions(w));
        }
        running_[core_id] = kInvalidThread;
        break;
      }
    }
}

namespace
{

/**
 * Counter handles for the batch publish below. All kStable: each value
 * is a sum of per-run deltas, and every run's delta is a pure function
 * of (trace, config) — scheduling never touches it.
 */
struct SimMetrics
{
    telemetry::Counter events;
    telemetry::Counter instructions;
    telemetry::Counter cycles;
    telemetry::Counter loads;
    telemetry::Counter stores;
    telemetry::Counter dependences;
    telemetry::Counter predictions;
    telemetry::Counter verdict_hits;
    telemetry::Counter predicted_invalid;
    telemetry::Counter train_updates;
    telemetry::Counter mode_switches;
    telemetry::Counter input_overwrites;
    telemetry::Counter debug_overwrites;
    telemetry::Counter quarantined_weights;

    static const SimMetrics &
    get()
    {
        static const SimMetrics metrics = [] {
            auto &reg = telemetry::MetricsRegistry::global();
            SimMetrics m;
            m.events = reg.counter("sim.events");
            m.instructions = reg.counter("sim.instructions");
            m.cycles = reg.counter("sim.cycles");
            m.loads = reg.counter("mem.loads");
            m.stores = reg.counter("mem.stores");
            m.dependences = reg.counter("act.dependences");
            m.predictions = reg.counter("act.predictions");
            m.verdict_hits = reg.counter("act.verdict_hits");
            m.predicted_invalid = reg.counter("act.predicted_invalid");
            m.train_updates = reg.counter("act.train_updates");
            m.mode_switches = reg.counter("act.mode_switches");
            m.input_overwrites =
                reg.counter("act.input_buffer_overwrites");
            m.debug_overwrites =
                reg.counter("act.debug_buffer_overwrites");
            m.quarantined_weights =
                reg.counter("act.quarantined_weight_sets");
            return m;
        }();
        return metrics;
    }
};

} // namespace

void
System::run(const Trace &trace)
{
    // The observe path (handle → memsys → onDependence) is the
    // per-event hot loop and contains no telemetry calls at all;
    // counters are published once per run as before/after deltas of
    // the stats the simulator already keeps.
    auto &reg = telemetry::MetricsRegistry::global();
    const bool publish = reg.enabled();
    SystemStats before;
    if (publish)
        before = stats();
    telemetry::ScopedSpan span("simulate", "sim");
    span.annotate(telemetry::arg(
        "events", static_cast<std::uint64_t>(trace.events().size())));

    for (const auto &event : trace.events())
        handle(event);

    if (publish) {
        const SystemStats after = stats();
        const SimMetrics &m = SimMetrics::get();
        m.events.add(trace.events().size());
        m.instructions.add(after.instructions - before.instructions);
        m.cycles.add(after.cycles >= before.cycles
                         ? after.cycles - before.cycles
                         : 0);
        m.loads.add(after.mem.loads - before.mem.loads);
        m.stores.add(after.mem.stores - before.mem.stores);
        m.dependences.add(after.act.dependences -
                          before.act.dependences);
        m.predictions.add(after.act.predictions -
                          before.act.predictions);
        m.verdict_hits.add(after.verdict_hits - before.verdict_hits);
        m.predicted_invalid.add(after.act.predicted_invalid -
                                before.act.predicted_invalid);
        m.train_updates.add(after.act.train_updates -
                            before.act.train_updates);
        m.mode_switches.add(after.act.mode_switches -
                            before.act.mode_switches);
        m.input_overwrites.add(after.act.input_buffer_overwrites -
                               before.act.input_buffer_overwrites);
        m.debug_overwrites.add(after.act.debug_buffer_overwrites -
                               before.act.debug_buffer_overwrites);
        m.quarantined_weights.add(after.act.quarantined_weight_sets -
                                  before.act.quarantined_weight_sets);
    }
}

SystemStats
System::stats() const
{
    SystemStats out;
    out.mem = mem_.stats();
    out.context_switches = context_switches_;
    out.weight_transfer_instructions = weight_transfer_instructions_;
    for (const auto &core : cores_) {
        out.core_cycles.push_back(core.cycle());
        out.cycles = std::max(out.cycles, core.cycle());
        out.instructions += core.stats().instructions;
    }
    for (const auto &module : modules_) {
        out.verdict_hits += module->verdictHits();
        const ActModuleStats &s = module->stats();
        out.act.dependences += s.dependences;
        out.act.predictions += s.predictions;
        out.act.predicted_invalid += s.predicted_invalid;
        out.act.train_updates += s.train_updates;
        out.act.mode_switches += s.mode_switches;
        out.act.stalled_offers += s.stalled_offers;
        out.act.stall_cycles += s.stall_cycles;
        out.act.training_dependences += s.training_dependences;
        out.act.input_buffer_overwrites += s.input_buffer_overwrites;
        out.act.debug_buffer_overwrites += s.debug_buffer_overwrites;
        out.act.input_drops_injected += s.input_drops_injected;
        out.act.debug_drops_injected += s.debug_drops_injected;
        out.act.quarantined_weight_sets += s.quarantined_weight_sets;
        out.act.repaired_weight_sets += s.repaired_weight_sets;
        out.act.quarantine_escalations += s.quarantine_escalations;
    }
    return out;
}

const ActModule *
System::module(CoreId core) const
{
    if (!config_.act_enabled || core >= modules_.size())
        return nullptr;
    return modules_[core].get();
}

std::vector<DebugEntry>
System::collectDebugEntries() const
{
    std::vector<DebugEntry> all;
    for (const auto &module : modules_) {
        const auto &entries = module->debugBuffer().entries();
        all.insert(all.end(), entries.begin(), entries.end());
    }
    // Order by each module's logging sequence; entries from different
    // cores interleave by their prediction index, which approximates
    // global time closely enough for postprocessing.
    std::stable_sort(all.begin(), all.end(),
                     [](const DebugEntry &a, const DebugEntry &b) {
                         return a.when < b.when;
                     });
    return all;
}

} // namespace act
