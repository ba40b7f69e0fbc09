#include "diagnosis/pipeline.hh"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "act/weight_guard.hh"
#include "common/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{

namespace
{

/** Record @p workload via the provider when set, directly otherwise. */
Trace
obtainTrace(const TraceProvider &provider, const Workload &workload,
            const WorkloadParams &params)
{
    return provider ? provider(workload, params) : workload.record(params);
}

} // namespace

TrainedModel
offlineTrain(const Workload &workload, DependenceEncoder &encoder,
             const OfflineTrainingConfig &config)
{
    telemetry::ScopedSpan span("diagnosis.offline_train", "diagnosis");
    span.annotate(telemetry::arg("workload", workload.name()));

    TrainedModel model;
    InputGenerator generator(config.sequence_length);

    const std::unordered_set<Pc> excluded(config.exclude_load_pcs.begin(),
                                          config.exclude_load_pcs.end());
    const auto touches_excluded = [&](const DependenceSequence &seq) {
        for (const auto &dep : seq.deps) {
            if (excluded.count(dep.load_pc) != 0)
                return true;
        }
        return false;
    };

    Dataset data;
    std::unordered_map<ThreadId, Dataset> per_thread_data;
    for (std::size_t i = 0; i < config.traces; ++i) {
        WorkloadParams params;
        params.seed = config.seed_base + i;
        const Trace trace =
            obtainTrace(config.trace_provider, workload, params);
        GeneratedSequences sequences = generator.process(trace);
        model.dependence_count += sequences.dependence_count;
        if (!excluded.empty()) {
            // "New code" methodology (Fig. 7(b), Table VI): sequences
            // touching the excluded function never reach the trainer.
            // (The tid vector is only consumed below when exclusion is
            // off, so it needs no matching erase.)
            std::erase_if(sequences.positives, touches_excluded);
            std::erase_if(sequences.negatives, touches_excluded);
        } else if (config.per_thread_weights) {
            for (std::size_t s = 0; s < sequences.positives.size(); ++s) {
                per_thread_data[sequences.positive_tids[s]].add(Example{
                    encoder.encodeSequence(sequences.positives[s]), 1.0});
            }
            for (std::size_t s = 0; s < sequences.negatives.size(); ++s) {
                per_thread_data[sequences.negative_tids[s]].add(Example{
                    encoder.encodeSequence(sequences.negatives[s]), 0.0});
            }
        }
        data.merge(InputGenerator::toDataset(sequences, encoder));
    }

    Rng rng(config.rng_seed);
    if (data.size() > config.max_examples) {
        data.shuffle(rng);
        Dataset capped;
        for (std::size_t i = 0; i < config.max_examples; ++i)
            capped.add(data[i]);
        data = std::move(capped);
    }
    model.example_count = data.size();

    model.topology = Topology{
        config.sequence_length * encoder.width(), config.hidden_neurons};
    MlpNetwork network(model.topology, rng);
    model.training = trainNetwork(network, data, config.trainer, rng);
    model.weights = network.weights();

    // Per-thread specialisation: fine-tune a copy of the base network
    // on each thread's own sequences (Section III-B).
    if (config.per_thread_weights) {
        for (auto &[tid, thread_data] : per_thread_data) {
            MlpNetwork specialised(model.topology);
            specialised.setWeights(model.weights);
            TrainerConfig fine = config.trainer;
            fine.max_epochs = config.per_thread_epochs;
            fine.patience = config.per_thread_epochs;
            Rng thread_rng(hashCombine(config.rng_seed, tid));
            if (thread_data.size() > config.max_examples / 4) {
                thread_data.shuffle(thread_rng);
                Dataset capped;
                for (std::size_t i = 0; i < config.max_examples / 4; ++i)
                    capped.add(thread_data[i]);
                thread_data = std::move(capped);
            }
            trainNetwork(specialised, thread_data, fine, thread_rng);
            model.per_thread[tid] = specialised.weights();
        }
    }
    return model;
}

WeightStore
buildWeightStore(const TrainedModel &model, std::uint32_t threads)
{
    WeightStore store(model.topology);
    for (ThreadId tid = 0; tid < threads; ++tid) {
        const auto it = model.per_thread.find(tid);
        store.set(tid,
                  it != model.per_thread.end() ? it->second
                                               : model.weights);
    }
    return store;
}

std::vector<DependenceSequence>
collectCacheSequences(const Trace &trace, const MemSystemConfig &mem_config,
                      std::size_t sequence_length)
{
    MemorySystem memory(mem_config);
    std::unordered_map<ThreadId, std::deque<RawDependence>> windows;
    std::vector<DependenceSequence> sequences;

    for (const auto &event : trace.events()) {
        if (!event.isMemory())
            continue;
        const CoreId core = event.tid % mem_config.cores;
        const MemAccess access = memory.access(core, event);
        if (event.kind != EventKind::kLoad || event.stack ||
            !access.last_writer) {
            continue;
        }
        const RawDependence dep{access.last_writer->pc, event.pc,
                                access.last_writer->tid != event.tid};
        auto &window = windows[event.tid];
        window.push_back(dep);
        if (window.size() > sequence_length)
            window.pop_front();
        if (window.size() == sequence_length) {
            DependenceSequence seq;
            seq.deps.assign(window.begin(), window.end());
            sequences.push_back(std::move(seq));
        }
    }
    return sequences;
}

DiagnosisSetup
defaultDiagnosisSetup()
{
    return DiagnosisSetup{};
}

DiagnosisResult
diagnoseFailure(const Workload &workload, const DiagnosisSetup &setup)
{
    static const telemetry::Counter diagnoses =
        telemetry::MetricsRegistry::global().counter("diagnosis.runs");
    diagnoses.inc();
    telemetry::ScopedSpan span("diagnosis", "diagnosis");
    span.annotate(telemetry::arg("workload", workload.name()));

    DiagnosisResult result;
    PairEncoder encoder;

    // 1. Offline training on correct executions (Figure 4(a)).
    result.model = offlineTrain(workload, encoder, setup.training);

    // 2. Production run with the failure triggered, on the full
    //    simulated machine with per-core ACT Modules.
    SystemConfig sys_config = setup.system;
    sys_config.act_enabled = true;
    sys_config.act.sequence_length = setup.training.sequence_length;
    sys_config.act.topology = result.model.topology;

    WeightStore store =
        buildWeightStore(result.model, workload.threadCount());

    // Guard before corruption: checksums and shadow copies come from
    // the clean table (a deployment computes them when it patches the
    // binary), then the hook plays deployment-time bit rot on top.
    std::optional<WeightGuard> guard;
    if (setup.protect_weights) {
        guard.emplace(WeightGuard::build(store));
        sys_config.act.protector = &*guard;
    }
    if (setup.weight_store_hook)
        setup.weight_store_hook(store);

    System system(sys_config, encoder, store);
    WorkloadParams failure_params;
    failure_params.seed = setup.failure_seed;
    failure_params.trigger_failure = true;
    failure_params.scale = setup.scale;
    {
        telemetry::ScopedSpan failure_span("diagnosis.failure_run",
                                           "diagnosis");
        const Trace failure_trace =
            obtainTrace(setup.trace_provider, workload, failure_params);
        system.run(failure_trace);
    }
    result.run_stats = system.stats();

    // Where does the root cause sit in the Debug Buffer?
    const RawDependence root = workload.buggyDependence();
    const std::vector<DebugEntry> entries = system.collectDebugEntries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &entry = entries[entries.size() - 1 - i];
        if (!entry.sequence.deps.empty() &&
            entry.sequence.deps.back() == root) {
            result.root_logged = true;
            result.debug_position = i;
            break;
        }
    }

    // 3. Postmortem: a few more *correct* runs build the Correct Set —
    //    the failure is never reproduced (Section III-D). The replays
    //    go through the same cache model the hardware used so the
    //    sequence populations match.
    CorrectSet correct;
    {
        telemetry::ScopedSpan postmortem_span("diagnosis.postmortem",
                                              "diagnosis");
        for (std::size_t i = 0; i < setup.postmortem_traces; ++i) {
            WorkloadParams params;
            params.seed = setup.postmortem_seed_base + i;
            params.scale = setup.scale;
            const Trace trace =
                obtainTrace(setup.trace_provider, workload, params);
            correct.addSequences(collectCacheSequences(
                trace, sys_config.mem, setup.training.sequence_length));
        }
    }

    {
        telemetry::ScopedSpan postprocess_span("diagnosis.postprocess",
                                               "diagnosis");
        result.report = postprocess(entries, correct);
    }
    result.sequence_rank = result.report.rankOf(root);
    result.rank = result.report.dependenceRankOf(root);
    if (!result.rank)
        result.rank = result.sequence_rank;
    return result;
}

} // namespace act
