/**
 * @file
 * Job execution: the workload → trace → train → evaluate/diagnose
 * loops that the figure/table benches used to each implement privately,
 * now shared, cache-fed and schedulable. The numeric recipes (seed
 * bases, shuffle seeds, example caps, sweep bounds) are kept exactly as
 * the original benches had them so ported campaigns reproduce the same
 * numbers.
 */

#include "runner/job.hh"

#include <chrono>
#include <thread>

#include <set>

#include "analysis/finding.hh"
#include "analysis/pipeline.hh"
#include "analysis/race_oracle.hh"
#include "baselines/aviso.hh"
#include "baselines/pbi.hh"
#include "common/logging.hh"
#include "corpus/corpus.hh"
#include "diagnosis/pipeline.hh"
#include "faults/fault_injector.hh"
#include "nn/topology_search.hh"
#include "runner/adaptivity_sweep.hh"
#include "runner/trace_cache.hh"

namespace act
{

namespace
{

/** printf into a std::string (small local copy of bench::format). */
template <typename... Args>
std::string
formatCell(const char *fmt, Args... args)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

std::unique_ptr<DependenceEncoder>
makeEncoder(const std::string &name)
{
    if (name == "pair")
        return std::make_unique<PairEncoder>();
    if (name == "dictionary")
        return std::make_unique<DictionaryEncoder>(64);
    if (name == "hash")
        return std::make_unique<HashEncoder>();
    ACT_FATAL("unknown encoder: " << name);
}

/** Seeds [base, base + count). */
std::vector<std::uint64_t>
seedRange(std::uint64_t base, std::size_t count)
{
    std::vector<std::uint64_t> seeds(count);
    for (std::size_t i = 0; i < count; ++i)
        seeds[i] = base + i;
    return seeds;
}

/** Cache-fed version of the benches' datasetFromRuns helper. */
Dataset
datasetFromRuns(TraceCache &cache, const Workload &workload,
                const InputGenerator &generator,
                DependenceEncoder &encoder,
                const std::vector<std::uint64_t> &seeds, bool negatives,
                std::size_t *deps_out = nullptr)
{
    Dataset data;
    for (const std::uint64_t seed : seeds) {
        WorkloadParams params;
        params.seed = seed;
        const Trace trace = cache.record(workload, params);
        const GeneratedSequences sequences =
            generator.process(trace, negatives);
        if (deps_out != nullptr)
            *deps_out += sequences.dependence_count;
        data.merge(
            InputGenerator::toDataset(sequences, encoder, negatives));
    }
    return data;
}

Dataset
capDataset(Dataset data, std::size_t cap)
{
    if (data.size() <= cap)
        return data;
    Dataset capped;
    for (std::size_t i = 0; i < cap; ++i)
        capped.add(data[i]);
    return capped;
}

/**
 * Table IV cell: topology selection (optional), final training, false
 * positives on held-out traces.
 */
void
runPrediction(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    const JobKnobs &knobs = spec.knobs;
    const auto workload = makeWorkload(spec.workload);
    const auto encoder = makeEncoder(knobs.encoder);

    Topology best{knobs.sequence_length * encoder->width(), 10};
    if (knobs.sweep_topology) {
        // Small sweep (Section VI-B): 4 traces, capped dataset, short
        // epochs — exactly the original table4 recipe.
        TopologySearchConfig search;
        search.min_inputs = 2;
        search.max_inputs = 4;
        search.min_hidden = 4;
        search.max_hidden = 10;
        search.trainer.max_epochs = 120;
        const TopologySearchResult sweep = searchTopology(
            [&](std::size_t n) {
                const InputGenerator generator(n);
                auto enc = encoder->clone();
                Dataset train = datasetFromRuns(
                    cache, *workload, generator, *enc,
                    seedRange(knobs.train_seed_base, 4), true);
                Rng rng(n);
                train.shuffle(rng);
                train = capDataset(std::move(train), 6000);
                Dataset validation = train.splitTail(0.3);
                return std::make_pair(train, validation);
            },
            search);
        best = sweep.best;
    }

    const std::size_t n = best.inputs / encoder->width();
    const InputGenerator generator(n);
    auto train_enc = encoder->clone();
    std::size_t deps = 0;
    Dataset train = datasetFromRuns(
        cache, *workload, generator, *train_enc,
        seedRange(knobs.train_seed_base, knobs.train_traces), true, &deps);

    Rng rng(knobs.shuffle_seed);
    train.shuffle(rng);
    train = capDataset(std::move(train), knobs.max_examples);
    MlpNetwork network(best, rng);
    TrainerConfig trainer;
    trainer.max_epochs = knobs.max_epochs;
    trainNetwork(network, train, trainer, rng);

    std::uint64_t wrong = 0;
    std::uint64_t predictions = 0;
    std::uint64_t instructions = 0;
    for (const std::uint64_t seed :
         seedRange(knobs.test_seed_base, knobs.test_traces)) {
        WorkloadParams params;
        params.seed = seed;
        const Trace trace = cache.record(*workload, params);
        instructions += trace.instructionCount();
        const GeneratedSequences sequences =
            generator.process(trace, false);
        for (const auto &seq : sequences.positives) {
            ++predictions;
            if (!network.predictValid(train_enc->encodeSequence(seq)))
                ++wrong;
        }
    }

    result.metrics["deps"] = static_cast<double>(deps);
    result.metrics["topology_inputs"] = static_cast<double>(best.inputs);
    result.metrics["topology_hidden"] = static_cast<double>(best.hidden);
    result.metrics["mispred_instr"] =
        instructions ? static_cast<double>(wrong) /
                           static_cast<double>(instructions)
                     : 0.0;
    result.metrics["mispred_dep"] =
        predictions ? static_cast<double>(wrong) /
                          static_cast<double>(predictions)
                    : 0.0;
    result.labels["topology"] = topologyToString(best);
}

/**
 * Figure 7(a) cell: count synthesised invalid dependences the trained
 * network wrongly accepts (false negatives).
 */
void
runInvalidDeps(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    const JobKnobs &knobs = spec.knobs;
    const auto workload = makeWorkload(spec.workload);
    const auto encoder = makeEncoder(knobs.encoder);
    const InputGenerator generator(knobs.sequence_length);

    Dataset train = datasetFromRuns(
        cache, *workload, generator, *encoder,
        seedRange(knobs.train_seed_base, knobs.train_traces), true);
    Rng rng(knobs.shuffle_seed);
    train.shuffle(rng);
    train = capDataset(std::move(train), knobs.max_examples);
    MlpNetwork network(
        Topology{knobs.sequence_length * encoder->width(), 10}, rng);
    TrainerConfig trainer;
    trainer.max_epochs = knobs.max_epochs;
    trainNetwork(network, train, trainer, rng);

    std::uint64_t missed = 0;
    std::uint64_t negatives = 0;
    std::uint64_t instructions = 0;
    for (const std::uint64_t seed :
         seedRange(knobs.test_seed_base, knobs.test_traces)) {
        WorkloadParams params;
        params.seed = seed;
        const Trace trace = cache.record(*workload, params);
        instructions += trace.instructionCount();
        const GeneratedSequences sequences =
            generator.process(trace, true);
        for (const auto &seq : sequences.negatives) {
            ++negatives;
            if (network.predictValid(encoder->encodeSequence(seq)))
                ++missed;
        }
    }

    result.metrics["negatives"] = static_cast<double>(negatives);
    result.metrics["missed"] = static_cast<double>(missed);
    result.metrics["missed_instr"] =
        instructions ? static_cast<double>(missed) /
                           static_cast<double>(instructions)
                     : 0.0;
    result.metrics["missed_dep"] =
        negatives ? static_cast<double>(missed) /
                        static_cast<double>(negatives)
                  : 0.0;
}

/**
 * Table V ACT column: the full Figure 1 loop, traces via the cache.
 * With a non-null @p inject, every offline artefact and online hook
 * site runs under the injector's plan; with a null injector (or an
 * all-zero plan) the computation is bit-identical to the fault-free
 * path — the resilience table's rate-0 row depends on this. The
 * adaptivity knob (protect_weights) is off by default, so every
 * pre-existing cell is untouched. @p am_out, when non-null, receives
 * the run's ActModuleStats so a caller can emit extra metrics without
 * widening the shared metric set here.
 */
void
runDiagnoseActImpl(const JobSpec &spec, TraceCache &cache,
                   JobResult &result, FaultInjector *inject,
                   ActModuleStats *am_out = nullptr)
{
    const JobKnobs &knobs = spec.knobs;
    const auto workload = makeWorkload(spec.workload);

    TraceProvider provider =
        [&cache](const Workload &w, const WorkloadParams &p) {
            return cache.record(w, p);
        };
    if (inject != nullptr) {
        // Corruption happens on the job's private copy, after the
        // (shared, clean) cache: each trace is a distinct stream keyed
        // by its recording parameters, so the damage is replayable and
        // independent of recording order.
        provider = [&cache, inject](const Workload &w,
                                    const WorkloadParams &p) {
            Trace trace = cache.record(w, p);
            inject->corruptTrace(trace,
                                 p.seed * 2 + (p.trigger_failure ? 1 : 0));
            return trace;
        };
    }

    DiagnosisSetup setup;
    setup.training.traces = knobs.train_traces;
    setup.training.max_examples = knobs.diagnosis_max_examples;
    setup.training.trainer.max_epochs = knobs.diagnosis_epochs;
    setup.training.trace_provider = provider;
    setup.trace_provider = provider;
    setup.postmortem_traces = knobs.postmortem_traces;
    setup.failure_seed = knobs.failure_seed;
    setup.protect_weights = knobs.protect_weights;
    if (knobs.debug_buffer_entries > 0)
        setup.system.act.debug_buffer_entries = knobs.debug_buffer_entries;

    if (inject != nullptr) {
        setup.weight_store_hook = [inject](WeightStore &store) {
            inject->corruptWeightStore(store, 0);
        };
        setup.system.act.faults = inject;
        setup.system.mem.faults = inject;
    }

    const DiagnosisResult act = diagnoseFailure(*workload, setup);
    if (am_out != nullptr)
        *am_out = act.run_stats.act;

    // Score ACT's ranked candidates against the vector-clock race
    // oracle on the same failing trace the run consumed (a cache hit).
    // With analysis on, the pipeline computes the oracle with the other
    // lenses: mine benign-interleaving baselines from the same passing
    // traces training consumed (all cache hits) and run every detector
    // over the failing trace.
    WorkloadParams failure_params;
    failure_params.seed = knobs.failure_seed;
    failure_params.trigger_failure = true;
    const Trace failing_trace = cache.record(*workload, failure_params);
    PipelineResult analysis;
    if (knobs.analyze) {
        MinedBaselines baselines;
        for (std::size_t i = 0; i < setup.training.traces; ++i) {
            WorkloadParams train_params;
            train_params.seed = setup.training.seed_base + i;
            baselines.addPassingTrace(
                cache.record(*workload, train_params));
        }
        analysis = runAnalysisPipeline(failing_trace, &baselines);
    } else {
        analysis.races = detectRaces(failing_trace);
    }
    const RaceReport &oracle = analysis.races;
    const RawDependence root = workload->buggyDependence();
    std::vector<RawDependence> predicted;
    for (const auto &candidate : act.report.ranked) {
        if (!candidate.sequence.deps.empty())
            predicted.push_back(candidate.sequence.deps.back());
    }
    const OracleScore score = oracle.score(predicted);

    result.metrics["diagnosed"] = act.rank ? 1.0 : 0.0;
    result.metrics["oracle_root_racy"] = oracle.isRacy(root) ? 1.0 : 0.0;
    result.metrics["oracle_races"] =
        static_cast<double>(oracle.races().size());
    result.metrics["oracle_tp"] =
        static_cast<double>(score.true_positives);
    result.metrics["oracle_fp"] =
        static_cast<double>(score.false_positives);
    result.metrics["oracle_precision"] = score.precision();
    result.labels["oracle"] = oracle.isRacy(root) ? "race" : "none";
    result.metrics["rank"] =
        act.rank ? static_cast<double>(*act.rank) : -1.0;
    result.metrics["debug_position"] =
        act.debug_position ? static_cast<double>(*act.debug_position)
                           : -1.0;
    result.metrics["filter_fraction"] = act.report.filterFraction();
    result.metrics["root_logged"] = act.root_logged ? 1.0 : 0.0;
    result.metrics["flagged"] =
        static_cast<double>(act.run_stats.act.predicted_invalid);
    result.labels["rank"] =
        act.rank ? formatCell("%zu", *act.rank) : std::string("-");
    result.labels["dbg.pos"] =
        act.debug_position ? formatCell("%zu", *act.debug_position)
                           : std::string("evicted");

    if (knobs.analyze) {
        // Multi-detector ensemble: score ACT's predictions through each
        // lens plus the fused union.
        const EnsembleScore ensemble = scoreEnsemble(analysis, predicted);
        const auto emitLens = [&result](const std::string &key,
                                        const OracleScore &s) {
            result.metrics["ens_" + key + "_tp"] =
                static_cast<double>(s.true_positives);
            result.metrics["ens_" + key + "_fp"] =
                static_cast<double>(s.false_positives);
            result.metrics["ens_" + key + "_prec"] = s.precision();
            result.metrics["ens_" + key + "_recall"] = s.recall();
        };
        for (const auto &lens : ensemble.per_detector)
            emitLens(lens.first, lens.second);
        emitLens("fused", ensemble.fused);

        result.metrics["analysis_findings"] =
            static_cast<double>(analysis.report.size());
        for (std::size_t d = 0; d < kDetectorCount; ++d) {
            const auto kind = static_cast<DetectorKind>(d);
            result.metrics[std::string("det_") + detectorName(kind)] =
                static_cast<double>(analysis.report.countFor(kind));
        }

        // Catalog agreement: which lenses flag the known root pair,
        // and whether the bug's own detector class is among them.
        std::string flagged_by;
        for (std::size_t d = 0; d < kDetectorCount; ++d) {
            const auto kind = static_cast<DetectorKind>(d);
            if (analysis.report.matchesPair(kind, root.store_pc,
                                            root.load_pc)) {
                if (!flagged_by.empty())
                    flagged_by += '+';
                flagged_by += detectorName(kind);
            }
        }
        if (oracle.isRacy(root)) {
            if (!flagged_by.empty())
                flagged_by += '+';
            flagged_by += "hb";
        }
        result.metrics["analysis_root_flagged"] =
            flagged_by.empty() ? 0.0 : 1.0;
        result.labels["analysis"] =
            flagged_by.empty() ? std::string("clean") : flagged_by;

        double class_match = 0.0;
        switch (workload->bugClass()) {
        case BugClass::kAtomicityViolation:
            class_match = analysis.report.matchesPair(
                              DetectorKind::kAtomicity, root.store_pc,
                              root.load_pc)
                              ? 1.0
                              : 0.0;
            break;
        case BugClass::kOrderViolation:
            class_match = analysis.report.matchesPair(
                              DetectorKind::kOrder, root.store_pc,
                              root.load_pc)
                              ? 1.0
                              : 0.0;
            break;
        default:
            // Sequential / raceless bugs: agreement means the
            // concurrency detectors stay quiet.
            class_match = analysis.report.empty() ? 1.0 : 0.0;
            break;
        }
        result.metrics["analysis_class_match"] = class_match;
    }

    if (inject != nullptr) {
        // Degradation accounting: what the fault plan actually did and
        // what the graceful-degradation layer absorbed.
        result.metrics["injections"] =
            static_cast<double>(inject->totalInjections());
        for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
            const auto site = static_cast<FaultSite>(s);
            result.metrics[std::string("inj_") + faultSiteName(site)] =
                static_cast<double>(inject->injectionCount(site));
        }
        const ActModuleStats &am = act.run_stats.act;
        result.metrics["quarantined_weight_sets"] =
            static_cast<double>(am.quarantined_weight_sets);
        result.metrics["input_drops_absorbed"] =
            static_cast<double>(am.input_drops_injected);
        result.metrics["debug_drops_absorbed"] =
            static_cast<double>(am.debug_drops_injected);
        result.metrics["debug_buffer_overwrites"] =
            static_cast<double>(am.debug_buffer_overwrites);
        result.metrics["oracle_recall"] = score.recall();
    }
}

/** Table V ACT column (fault-free). */
void
runDiagnoseAct(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    runDiagnoseActImpl(spec, cache, result, nullptr);
}

/**
 * Resilience cell: the diagnose-act recipe under a uniform fault plan
 * at knobs.fault_rate, scored against the race oracle on the *clean*
 * failing trace. Rate 0 reproduces the fault-free numbers exactly.
 */
void
runResilience(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    FaultInjector inject(
        FaultPlan::uniform(spec.knobs.fault_rate, spec.knobs.fault_seed));
    runDiagnoseActImpl(spec, cache, result, &inject);
    result.metrics["fault_rate"] = spec.knobs.fault_rate;
}

/**
 * table-adaptivity cell: diagnose-act with the protection knob from
 * the spec, under a fault plan that concentrates its whole budget on
 * stored weights — the hazard weight protection is built against.
 * Rate 0 passes a *null* injector, so the baseline cell is
 * byte-comparable to a plain fault-free diagnose-act run with the same
 * knobs. The scalar `accuracy` in [0, 1] folds the
 * headline outcomes — was the bug diagnosed, was the root logged, how
 * precise were the ranked candidates, and how clean was the online
 * monitoring signal (the fraction of logged suspects that survive
 * postmortem pruning: silently corrupt weights flood the Debug Buffer
 * with junk, which this term charges even when pruning rescues the
 * final verdict) — into one sweepable number; the sweep report charts
 * its degradation per configuration as the rate climbs.
 */
void
runAdaptivity(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    ActModuleStats am;
    if (spec.knobs.fault_rate > 0.0) {
        FaultInjector inject(FaultPlan::weightsOnly(spec.knobs.fault_rate,
                                                    spec.knobs.fault_seed));
        runDiagnoseActImpl(spec, cache, result, &inject, &am);
    } else {
        runDiagnoseActImpl(spec, cache, result, nullptr, &am);
    }

    result.metrics["fault_rate"] = spec.knobs.fault_rate;
    result.metrics["protected"] = spec.knobs.protect_weights ? 1.0 : 0.0;
    result.metrics["repaired_weight_sets"] =
        static_cast<double>(am.repaired_weight_sets);
    result.metrics["quarantined_weight_sets"] =
        static_cast<double>(am.quarantined_weight_sets);
    result.metrics["quarantine_escalations"] =
        static_cast<double>(am.quarantine_escalations);
    result.metrics["mode_switches"] =
        static_cast<double>(am.mode_switches);

    const double log_precision = 1.0 - result.metrics["filter_fraction"];
    result.metrics["log_precision"] = log_precision;
    const double accuracy = (result.metrics["diagnosed"] +
                             result.metrics["root_logged"] +
                             result.metrics["oracle_precision"] +
                             log_precision) /
                            4.0;
    result.metrics["accuracy"] = accuracy;
    result.labels["config"] = adaptivityConfigLabel(spec.knobs);
}

/** Table V Aviso column: failing runs fed one at a time. */
void
runDiagnoseAviso(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    const JobKnobs &knobs = spec.knobs;
    const auto workload = makeWorkload(spec.workload);

    if (!workload->concurrent()) {
        result.metrics["applicable"] = 0.0;
        result.metrics["rank"] = -1.0;
        result.metrics["failures_used"] = 0.0;
        result.labels["cell"] = "n/a (seq.)";
        return;
    }

    AvisoDiagnoser aviso((AvisoConfig()));
    for (const std::uint64_t seed :
         seedRange(knobs.baseline_seed_base, knobs.baseline_correct_traces)) {
        WorkloadParams params;
        params.seed = seed;
        aviso.addCorrectTrace(cache.record(*workload, params));
    }
    const RawDependence root = workload->buggyDependence();
    result.metrics["applicable"] = 1.0;
    for (std::uint32_t failure = 1; failure <= knobs.aviso_max_failures;
         ++failure) {
        WorkloadParams params;
        params.seed = 900 + failure;
        params.trigger_failure = true;
        aviso.addFailureTrace(cache.record(*workload, params));
        const AvisoResult outcome =
            aviso.diagnose(root.store_pc, root.load_pc);
        if (outcome.found) {
            result.metrics["rank"] = static_cast<double>(*outcome.rank);
            result.metrics["failures_used"] =
                static_cast<double>(failure);
            result.labels["cell"] =
                formatCell("%zu (%u)", *outcome.rank, failure);
            return;
        }
    }
    result.metrics["rank"] = -1.0;
    result.metrics["failures_used"] =
        static_cast<double>(knobs.aviso_max_failures);
    result.labels["cell"] =
        formatCell("- (%u)", knobs.aviso_max_failures);
}

/** Table V PBI column: 15 correct runs + one fully sampled failure. */
void
runDiagnosePbi(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    const JobKnobs &knobs = spec.knobs;
    const auto workload = makeWorkload(spec.workload);

    PbiConfig config;
    PbiDiagnoser pbi(config);
    for (const std::uint64_t seed :
         seedRange(knobs.baseline_seed_base, knobs.baseline_correct_traces)) {
        WorkloadParams params;
        params.seed = seed;
        pbi.addCorrectTrace(cache.record(*workload, params));
    }
    WorkloadParams params;
    params.seed = knobs.failure_seed;
    params.trigger_failure = true;
    pbi.addFailureTrace(cache.record(*workload, params));

    std::vector<Pc> roots{workload->buggyDependence().load_pc};
    for (const std::uint64_t pc : knobs.extra_root_pcs)
        roots.push_back(pc);
    const PbiResult outcome = pbi.diagnose(roots);

    result.metrics["rank"] =
        outcome.rank ? static_cast<double>(*outcome.rank) : -1.0;
    result.metrics["total_predicates"] =
        static_cast<double>(outcome.total_predicates);
    result.metrics["predictive"] =
        static_cast<double>(outcome.predictive);
    result.labels["cell"] =
        outcome.rank
            ? formatCell("%zu (%zu)", *outcome.rank,
                         outcome.total_predicates)
            : formatCell("- (%zu)", outcome.total_predicates);
}

/**
 * table6-corpus cell: one injected-bug variant through the full ACT
 * diagnosis loop plus every detector lens, joined against the
 * variant's ground-truth catalog. The job deposits the flat tp/fp
 * counts the corpus sweep aggregator pools into per-class
 * precision/recall curves; the variant itself never enters the
 * workload registry (DESIGN section 14 dormancy contract).
 */
void
runCorpus(const JobSpec &spec, TraceCache &cache, JobResult &result)
{
    const JobKnobs &knobs = spec.knobs;
    std::vector<Finding> findings;
    const auto workload = corpus::makeCorpusWorkload(spec.workload, &findings);
    if (workload == nullptr) {
        throw std::runtime_error("corpus variant rejected: " +
                                 formatFindings(findings));
    }
    const corpus::CorpusCatalog catalog = workload->catalog();
    const RawDependence root = workload->buggyDependence();

    // Full ACT loop on the variant, cache-fed like every other job.
    TraceProvider provider =
        [&cache](const Workload &w, const WorkloadParams &p) {
            return cache.record(w, p);
        };
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
    const DiagnosisResult act = diagnoseFailure(*workload, setup);

    // ACT's predictions, deduplicated by static pair and scored
    // against the catalog's root: the pair itself is the positive.
    std::set<std::pair<Pc, Pc>> act_pairs;
    for (const auto &candidate : act.report.ranked) {
        if (candidate.sequence.deps.empty())
            continue;
        const RawDependence &dep = candidate.sequence.deps.back();
        if (dep.inter_thread)
            act_pairs.insert({dep.store_pc, dep.load_pc});
    }
    const bool act_tp =
        act_pairs.count({root.store_pc, root.load_pc}) != 0;
    const std::size_t act_fp = act_pairs.size() - (act_tp ? 1 : 0);

    // Run the variant's matching detector lens over the failing trace,
    // with baselines mined from the same passing traces training
    // consumed (all cache hits).
    WorkloadParams failure_params;
    failure_params.seed = knobs.failure_seed;
    failure_params.trigger_failure = true;
    const Trace failing_trace = cache.record(*workload, failure_params);

    MinedBaselines baselines;
    for (std::size_t i = 0; i < setup.training.traces; ++i) {
        WorkloadParams train_params;
        train_params.seed = setup.training.seed_base + i;
        baselines.addPassingTrace(cache.record(*workload, train_params));
    }
    const PipelineResult analysis =
        runAnalysisPipeline(failing_trace, &baselines);
    const RaceReport &oracle = analysis.races;

    bool lens_tp = false;
    std::size_t lens_fp = 0;
    if (catalog.lens == "hb") {
        for (const Race &race : oracle.rawRaces()) {
            if (race.prior_pc == root.store_pc &&
                race.later_pc == root.load_pc) {
                lens_tp = true;
            } else {
                ++lens_fp;
            }
        }
    } else {
        DetectorKind kind = DetectorKind::kLockset;
        if (catalog.lens == "atomicity")
            kind = DetectorKind::kAtomicity;
        else if (catalog.lens == "order")
            kind = DetectorKind::kOrder;
        for (const AnalysisFinding &finding :
             analysis.report.findings()) {
            if (finding.detector != kind)
                continue;
            if (finding.coversPair(root.store_pc, root.load_pc))
                lens_tp = true;
            else
                ++lens_fp;
        }
    }

    result.labels["class"] = catalog.bug_class;
    result.labels["lens"] = catalog.lens;
    result.labels["base"] = catalog.base_kernel;
    result.labels["rank"] =
        act.rank ? formatCell("%zu", *act.rank) : std::string("-");
    result.metrics["lens_tp"] = lens_tp ? 1.0 : 0.0;
    result.metrics["lens_fp"] = static_cast<double>(lens_fp);
    result.metrics["act_tp"] = act_tp ? 1.0 : 0.0;
    result.metrics["act_fp"] = static_cast<double>(act_fp);
    result.metrics["act_rank"] =
        act.rank ? static_cast<double>(*act.rank) : -1.0;
    result.metrics["diagnosed"] = act.rank ? 1.0 : 0.0;
    result.metrics["oracle_races"] =
        static_cast<double>(oracle.races().size());
    result.metrics["analysis_findings"] =
        static_cast<double>(analysis.report.size());
}

} // namespace

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
      case JobKind::kPrediction: return "prediction";
      case JobKind::kInvalidDeps: return "invalid-deps";
      case JobKind::kDiagnoseAct: return "diagnose-act";
      case JobKind::kDiagnoseAviso: return "diagnose-aviso";
      case JobKind::kDiagnosePbi: return "diagnose-pbi";
      case JobKind::kResilience: return "resilience";
      case JobKind::kCorpus: return "corpus";
      case JobKind::kAdaptivity: return "adaptivity";
    }
    return "?";
}

const char *
jobFailureName(JobFailure failure)
{
    switch (failure) {
      case JobFailure::kNone: return "none";
      case JobFailure::kException: return "exception";
      case JobFailure::kTimeout: return "timeout";
      case JobFailure::kRetriesExhausted: return "retries-exhausted";
      case JobFailure::kSkipped: return "skipped";
    }
    return "?";
}

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::kAct: return "act";
      case Scheme::kAviso: return "aviso";
      case Scheme::kPbi: return "pbi";
    }
    return "?";
}

JobResult
runJob(const JobSpec &spec, TraceCache &cache, const JobContext &context)
{
    JobResult result;
    result.id = spec.id;
    const auto start = std::chrono::steady_clock::now();

    // Self-injected runner faults (resilience tests exercise the
    // executor's exception/timeout/retry handling through these).
    switch (spec.knobs.inject_fault) {
      case InjectedFault::kNone:
        break;
      case InjectedFault::kCrash:
        throw std::runtime_error(
            formatCell("injected crash (job %u)", spec.id));
      case InjectedFault::kHang:
        // Cooperative hang: spin until the deadline watchdog cancels
        // the attempt, then surface the cancellation as an error. A
        // hang with no watchdog armed would spin forever; refuse it.
        if (context.cancel == nullptr) {
            throw std::runtime_error(formatCell(
                "injected hang needs a deadline (job %u)", spec.id));
        }
        while (!context.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw std::runtime_error(
            formatCell("injected hang cancelled (job %u)", spec.id));
      case InjectedFault::kTransient:
        if (context.attempt < spec.knobs.inject_fail_attempts) {
            throw TransientError(formatCell(
                "injected transient fault (job %u, attempt %u)", spec.id,
                context.attempt));
        }
        break;
    }

    switch (spec.kind) {
      case JobKind::kPrediction:
        runPrediction(spec, cache, result);
        break;
      case JobKind::kInvalidDeps:
        runInvalidDeps(spec, cache, result);
        break;
      case JobKind::kDiagnoseAct:
        runDiagnoseAct(spec, cache, result);
        break;
      case JobKind::kDiagnoseAviso:
        runDiagnoseAviso(spec, cache, result);
        break;
      case JobKind::kDiagnosePbi:
        runDiagnosePbi(spec, cache, result);
        break;
      case JobKind::kResilience:
        runResilience(spec, cache, result);
        break;
      case JobKind::kCorpus:
        runCorpus(spec, cache, result);
        break;
      case JobKind::kAdaptivity:
        runAdaptivity(spec, cache, result);
        break;
    }
    result.ok = true;
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

} // namespace act
