/**
 * @file
 * `diagnose` workload: the full Figure 1 loop (diagnoseFailure) over a
 * fixed rotation of Table V bugs, single-threaded, with the settings of
 * the `table5` campaign's ACT cells. Traces come through the runner's
 * TraceCache; set-up warms its disk layer, and every diagnosis opens a
 * fresh cache on it, as a re-run of `actrun run table5` would.
 *
 * The traced run recomposes diagnoseFailure from the public calls it is
 * made of, times each one, and must reproduce the untraced result.
 */

#include <filesystem>
#include <functional>
#include <optional>

#include "bench.hh"
#include "host_speed.hh"
#include "diagnosis/pipeline.hh"
#include "runner/campaign.hh"
#include "runner/job.hh"
#include "runner/trace_cache.hh"

namespace act::perfbench
{

namespace
{

/**
 * The rotation: training-heavy concurrent bugs (pbzip2, aget) and
 * postmortem-heavy sequential ones (gzip, seq). The mysql bugs cost
 * 11-20 s each and stay out.
 */
const std::vector<std::string> kRotation = {"pbzip2", "gzip", "aget",
                                            "seq"};

/**
 * How strongly a diagnosis slows with the host (host_speed.hh): its
 * training loop lives in L1 and suffers less from the neighbours than
 * the reference loop does.
 */
constexpr double kSensitivity = 0.5;

/** The table5 campaign's ACT cell for @p bug. */
JobSpec
table5Cell(const std::string &bug)
{
    for (const JobSpec &job : makeCampaign("table5").jobs) {
        if (job.kind == JobKind::kDiagnoseAct && job.workload == bug)
            return job;
    }
    std::fprintf(stderr, "actbench: table5 has no ACT cell for %s\n",
                 bug.c_str());
    std::exit(2);
}

/** The DiagnosisSetup the runner builds for a fault-free ACT cell. */
DiagnosisSetup
setupFor(const JobKnobs &knobs, const TraceProvider &provider)
{
    DiagnosisSetup setup;
    setup.training.traces = knobs.train_traces;
    setup.training.max_examples = knobs.diagnosis_max_examples;
    setup.training.trainer.max_epochs = knobs.diagnosis_epochs;
    setup.training.trace_provider = provider;
    setup.trace_provider = provider;
    setup.postmortem_traces = knobs.postmortem_traces;
    setup.failure_seed = knobs.failure_seed;
    if (knobs.debug_buffer_entries > 0)
        setup.system.act.debug_buffer_entries = knobs.debug_buffer_entries;
    return setup;
}

/** Every trace one diagnosis under @p setup asks for. */
std::vector<WorkloadParams>
tracesOf(const DiagnosisSetup &setup)
{
    std::vector<WorkloadParams> all;
    for (std::size_t i = 0; i < setup.training.traces; ++i) {
        WorkloadParams params;
        params.seed = setup.training.seed_base + i;
        all.push_back(params);
    }
    WorkloadParams failure;
    failure.seed = setup.failure_seed;
    failure.trigger_failure = true;
    failure.scale = setup.scale;
    all.push_back(failure);
    for (std::size_t i = 0; i < setup.postmortem_traces; ++i) {
        WorkloadParams params;
        params.seed = setup.postmortem_seed_base + i;
        params.scale = setup.scale;
        all.push_back(params);
    }
    return all;
}

/** One bug of the rotation. */
struct Bug
{
    std::unique_ptr<Workload> workload;
    JobSpec cell;
};

TraceProvider
providerFor(TraceCache &cache)
{
    return [&cache](const Workload &w, const WorkloadParams &p) {
        return cache.record(w, p);
    };
}

/** Root-cause rank as Table V reports it (0 = not ranked). */
std::size_t
rankOf(const DiagnosisResult &result)
{
    return result.rank ? *result.rank : 0;
}

/**
 * diagnoseFailure rebuilt from its public parts (offline training,
 * production run, postmortem replays, postprocessing) with each part
 * charged to its layer. Valid for the table5 cells' settings: one
 * shared network, no excluded loads, no weight hooks or protection.
 */
DiagnosisResult
tracedDiagnosis(const Workload &workload, const DiagnosisSetup &setup,
                TraceCache &cache, Layers &layers, double &events)
{
    const auto fetch = [&](const WorkloadParams &params) {
        Trace trace;
        layers.time("trace.decode_s",
                    [&] { trace = cache.record(workload, params); });
        events += static_cast<double>(trace.size());
        return trace;
    };

    DiagnosisResult result;
    PairEncoder encoder;

    // 1. Offline training (offlineTrain's steps).
    const OfflineTrainingConfig &training = setup.training;
    TrainedModel &model = result.model;
    InputGenerator generator(training.sequence_length);
    Dataset data;
    for (std::size_t i = 0; i < training.traces; ++i) {
        WorkloadParams params;
        params.seed = training.seed_base + i;
        const Trace trace = fetch(params);
        layers.time("deps.generate_s", [&] {
            const GeneratedSequences sequences = generator.process(trace);
            model.dependence_count += sequences.dependence_count;
            data.merge(InputGenerator::toDataset(sequences, encoder));
        });
    }
    Rng rng(training.rng_seed);
    layers.time("deps.generate_s", [&] {
        if (data.size() > training.max_examples) {
            data.shuffle(rng);
            Dataset capped;
            for (std::size_t i = 0; i < training.max_examples; ++i)
                capped.add(data[i]);
            data = std::move(capped);
        }
    });
    model.example_count = data.size();
    model.topology = Topology{training.sequence_length * encoder.width(),
                              training.hidden_neurons};
    layers.time("nn.train_s", [&] {
        MlpNetwork network(model.topology, rng);
        model.training = trainNetwork(network, data, training.trainer, rng);
        model.weights = network.weights();
    });

    // 2. The failing production run on the ACT machine.
    SystemConfig sys_config = setup.system;
    sys_config.act_enabled = true;
    sys_config.act.sequence_length = training.sequence_length;
    sys_config.act.topology = model.topology;
    WorkloadParams failure_params;
    failure_params.seed = setup.failure_seed;
    failure_params.trigger_failure = true;
    failure_params.scale = setup.scale;
    // The machine stays alive to the end, as in diagnoseFailure: its
    // memory is then not free for the postmortem replays to reuse,
    // which decides what their cache models cost to build.
    std::optional<WeightStore> store;
    std::optional<System> system;
    const Trace failure_trace = fetch(failure_params);
    std::vector<DebugEntry> entries;
    layers.time("sim.failure_run_s", [&] {
        store.emplace(buildWeightStore(model, workload.threadCount()));
        system.emplace(sys_config, encoder, *store);
        system->run(failure_trace);
        result.run_stats = system->stats();
        entries = system->collectDebugEntries();
    });
    const RawDependence root = workload.buggyDependence();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &entry = entries[entries.size() - 1 - i];
        if (!entry.sequence.deps.empty() &&
            entry.sequence.deps.back() == root) {
            result.root_logged = true;
            result.debug_position = i;
            break;
        }
    }

    // 3. Postmortem correct runs through the same cache model.
    CorrectSet correct;
    for (std::size_t i = 0; i < setup.postmortem_traces; ++i) {
        WorkloadParams params;
        params.seed = setup.postmortem_seed_base + i;
        params.scale = setup.scale;
        const Trace trace = fetch(params);
        layers.time("diagnosis.postmortem_s", [&] {
            correct.addSequences(collectCacheSequences(
                trace, sys_config.mem, training.sequence_length));
        });
    }

    // 4. Pruning and ranking.
    layers.time("diagnosis.postprocess_s",
                [&] { result.report = postprocess(entries, correct); });
    result.sequence_rank = result.report.rankOf(root);
    result.rank = result.report.dependenceRankOf(root);
    if (!result.rank)
        result.rank = result.sequence_rank;
    return result;
}

/** Do two diagnoses agree on everything the report shows? */
bool
sameDiagnosis(const DiagnosisResult &a, const DiagnosisResult &b)
{
    if (a.rank != b.rank || a.debug_position != b.debug_position ||
        a.report.raw_entries != b.report.raw_entries ||
        a.report.distinct_entries != b.report.distinct_entries ||
        a.report.pruned != b.report.pruned ||
        a.report.ranked.size() != b.report.ranked.size() ||
        a.model.weights != b.model.weights)
        return false;
    for (std::size_t i = 0; i < a.report.ranked.size(); ++i) {
        const RankedSequence &x = a.report.ranked[i];
        const RankedSequence &y = b.report.ranked[i];
        if (x.sequence.deps != y.sequence.deps || x.output != y.output ||
            x.matched != y.matched)
            return false;
    }
    return true;
}

} // namespace

Report
runDiagnose(const Options &options)
{
    Report report;
    std::vector<Bug> bugs;
    const std::vector<std::string> names =
        options.small ? std::vector<std::string>{"gzip"} : kRotation;
    // The seed picks where the rotation starts; every run diagnoses
    // each bug of the rotation equally often.
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[(options.seed + i) % names.size()];
        bugs.push_back(Bug{makeWorkload(name), table5Cell(name)});
    }

    // Set-up: record every trace the rotation asks for into an empty
    // cache directory, then run the table5 campaign's own ACT cell of
    // each bug for its reference rank.
    const std::string cache_dir = options.work_dir + "/diagnose-cache";
    std::vector<double> table5_ranks(bugs.size(), -1.0);
    HostSpeed setup_speed(false, kSensitivity);
    std::filesystem::remove_all(cache_dir);
    TraceCache warm(cache_dir);
    double setup_s = setup_speed.time([&] {
        for (const Bug &bug : bugs) {
            const DiagnosisSetup setup =
                setupFor(bug.cell.knobs, providerFor(warm));
            for (const WorkloadParams &params : tracesOf(setup))
                warm.record(*bug.workload, params);
        }
    });
    for (std::size_t b = 0; b < bugs.size(); ++b) {
        TraceCache cache(cache_dir);
        JobResult cell;
        setup_s +=
            setup_speed.time([&] { cell = runJob(bugs[b].cell, cache); });
        const auto it = cell.metrics.find("rank");
        table5_ranks[b] =
            cell.ok && it != cell.metrics.end() ? it->second : -1.0;
    }

    // Timed part: whole rotations until the run time is spent. Every
    // diagnosis opens a fresh cache on the warm directory, so each one
    // decodes its traces from disk.
    HostSpeed speed(false, kSensitivity);
    std::vector<DiagnosisResult> firsts(bugs.size());
    std::vector<std::vector<double>> times(bugs.size());
    const auto diagnose = [&](std::size_t b) {
        const Bug &bug = bugs[b];
        TraceCache cache(cache_dir);
        const DiagnosisSetup setup =
            setupFor(bug.cell.knobs, providerFor(cache));
        DiagnosisResult result;
        times[b].push_back(speed.time(
            [&] { result = diagnoseFailure(*bug.workload, setup); }));
        ++report.attempted;
        report.check(cache.stats().misses == 0,
                     bug.cell.workload + ": trace cache was not warm");
        report.check(static_cast<double>(rankOf(result)) == table5_ranks[b] &&
                         rankOf(result) != 0,
                     bug.cell.workload + ": rank " +
                         std::to_string(rankOf(result)) +
                         ", table5 ranks it " +
                         std::to_string(table5_ranks[b]));
        if (times[b].size() == 1)
            firsts[b] = std::move(result);
    };

    // A traced run follows every untraced diagnosis with a recomposed,
    // traced one of the same bug, checked against the untraced result,
    // and closes with one more untraced diagnosis of every bug. Each bug
    // keeps its fastest traced diagnosis: host load only ever adds time,
    // and a burst of it during one diagnosis moved a single pair by 30%.
    std::vector<Layers> fastest(bugs.size());
    std::vector<double> fastest_s(bugs.size(), 0.0);
    double events = 0.0;
    double filter_sum = 0.0;
    double epochs = 0.0;
    double examples = 0.0;
    double postmortem_traces = 0.0;
    const auto traced = [&](std::size_t b, bool first) {
        TraceCache cache(cache_dir);
        const DiagnosisSetup setup =
            setupFor(bugs[b].cell.knobs, providerFor(cache));
        Layers layers;
        double bug_events = 0.0;
        DiagnosisResult result;
        const double took = speed.time([&] {
            result = tracedDiagnosis(*bugs[b].workload, setup, cache, layers,
                                     bug_events);
        });
        ++report.attempted;
        report.check(sameDiagnosis(result, firsts[b]),
                     bugs[b].cell.workload +
                         ": traced diagnosis differs from diagnoseFailure");
        if (first || took < fastest_s[b]) {
            fastest_s[b] = took;
            fastest[b] = std::move(layers);
        }
        if (first) {
            events += bug_events;
            postmortem_traces += static_cast<double>(setup.postmortem_traces);
            filter_sum += result.report.filterFraction();
            epochs += static_cast<double>(result.model.training.epochs);
            examples += static_cast<double>(result.model.example_count);
        }
    };

    std::size_t rounds = 0;
    const auto run_start = Clock::now();
    do {
        for (std::size_t b = 0; b < bugs.size(); ++b) {
            diagnose(b);
            if (options.trace)
                traced(b, rounds == 0);
        }
        ++rounds;
    } while (!options.small && (elapsed(run_start) < options.seconds ||
                                (options.trace && rounds < 2)));
    if (options.trace) {
        for (std::size_t b = 0; b < bugs.size(); ++b)
            diagnose(b);
    }

    // A rotation takes the sum over bugs of each bug's median time.
    const double slowdown = speed.slowdown();
    double rank_sum = 0.0;
    double rotation_s = 0.0;
    for (std::size_t b = 0; b < bugs.size(); ++b) {
        rank_sum += static_cast<double>(rankOf(firsts[b]));
        rotation_s += median(times[b]);
        std::printf("diagnose %-8s rank %zu, %.3f s per diagnosis\n",
                    bugs[b].cell.workload.c_str(), rankOf(firsts[b]),
                    median(times[b]));
    }
    const double n = static_cast<double>(bugs.size());
    const double root_rank_mean = rank_sum / n;
    std::printf("diagnose %zu rounds, %.4f per s as measured, host "
                "slowdown %.4f; root_rank_mean %.4f\n",
                rounds, n / rotation_s, slowdown, root_rank_mean);

    if (!options.trace) {
        report.add("ops_per_s", n / rotation_s * slowdown, "1/s");
        report.add("setup_s", setup_s / setup_speed.slowdown(),
                   "s");
        return report;
    }

    // The layer-sum check holds each bug's fastest traced diagnosis
    // against its fastest untraced one.
    double layer_sum = 0.0;
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (std::size_t b = 0; b < bugs.size(); ++b) {
        const double best =
            *std::min_element(times[b].begin(), times[b].end());
        std::printf("diagnose traced %-8s fastest untraced %.3f s, fastest "
                    "traced %.3f s (layers %.3f s)\n",
                    bugs[b].cell.workload.c_str(), best, fastest_s[b],
                    fastest[b].total());
        layer_sum += fastest[b].total();
        traced_s += fastest_s[b];
        untraced_s += best;
    }

    // Per-layer numbers are per diagnosis, at the reference host speed.
    for (const char *layer :
         {"trace.decode_s", "deps.generate_s", "nn.train_s",
          "sim.failure_run_s", "diagnosis.postmortem_s",
          "diagnosis.postprocess_s"}) {
        double sum = 0.0;
        for (const Layers &layers : fastest)
            sum += layers.get(layer);
        report.add(layer, sum / n / slowdown, "s");
    }
    report.add("trace.events", events / n, "count");
    report.add("deps.examples", examples / n, "count");
    report.add("nn.epochs", epochs / n, "count");
    report.add("diagnosis.postmortem_traces", postmortem_traces / n,
               "count");
    report.add("diagnosis.filter_fraction", filter_sum / n, "ratio");
    report.add("diagnosis.root_rank_mean", root_rank_mean, "rank");
    addHostMetrics(report, n / rotation_s, slowdown);
    addLayerSum(options, report, layer_sum, untraced_s, traced_s);
    return report;
}

} // namespace act::perfbench
