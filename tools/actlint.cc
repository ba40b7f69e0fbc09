/**
 * @file
 * actlint — static/trace analysis driver over the repo's artifacts.
 *
 * Subcommands:
 *   trace <file.trc>...      lint trace files; --races also prints the
 *                            vector-clock oracle's racy pairs
 *   workloads [name...]      record correct + failing runs of the
 *                            registered workloads (all by default),
 *                            lint every trace, and check the race
 *                            oracle against the bug catalog: concurrent
 *                            bugs must race on their failure path,
 *                            sequential ones must show no race at all
 *   report <dir>             validate a campaign report directory
 *                            (report.json, report.csv) and lint every
 *                            .trc in its trace cache
 *                            [--cache DIR: cache location, default
 *                             <dir>/trace-cache]
 *   stream <file.trc>...     chunk traces into event blocks and run the
 *                            streaming batch linter over each block
 *                            (per-tid seq monotonicity, kind/tid/size
 *                            range checks) — the same validation the
 *                            fleet service applies to ingress blocks
 *                            [--block N: events per block, default 512]
 *   analyze [<file.trc>... | name...]
 *                            run the multi-detector analysis pipeline
 *                            (lockset races, atomicity violations,
 *                            order violations + the happens-before
 *                            oracle). With .trc files: analyse each in
 *                            single-trace mode (no order checker: it
 *                            needs passing runs) and print every
 *                            finding. With workload names (all bug
 *                            workloads + kernels by default): mine
 *                            atomicity/order baselines from passing
 *                            runs, analyse the failing run, and check
 *                            the detector verdicts against the bug
 *                            catalog — atomicity/order bugs must be
 *                            flagged by their own detector class on the
 *                            root dependence, and sequential bugs must
 *                            produce no findings
 *   catalog <file.json>...   validate corpus bug catalogs: JSON shape,
 *                            schema tag, class/lens pairing, PC sanity,
 *                            parameter ranges and name/body agreement
 *                            (see src/corpus/catalog.hh); any error
 *                            exits 1 — the corpus-smoke CI gate
 *   config                   validate the default ActConfig against
 *                            every built-in encoder
 *   weights <file>           validate a WeightStore blob against its
 *                            topology and the Q15.16 register range,
 *                            plus denormal/underflow hygiene warnings
 *
 * Exit status: 0 = clean, 1 = findings, 2 = usage or I/O error.
 */

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "act/act_config.hh"
#include "act/weight_store.hh"
#include "analysis/config_check.hh"
#include "corpus/catalog.hh"
#include "analysis/pipeline.hh"
#include "analysis/race_oracle.hh"
#include "analysis/trace_lint.hh"
#include "deps/encoder.hh"
#include "runner/report.hh"
#include "telemetry/json.hh"
#include "trace/io.hh"
#include "workloads/workload.hh"

namespace act
{
namespace
{

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: actlint <command> [args]\n"
        "  trace <file.trc>... [--races]   lint trace files\n"
        "  workloads [name...]             lint + oracle-check workload"
        " runs\n"
        "  report <dir> [--cache DIR]      validate a campaign report"
        " dir\n"
        "  stream <file.trc>... [--block N] batch-lint traces as event"
        " blocks\n"
        "  analyze [<file.trc>...|name...]\n"
        "                                  run the detector pipeline on"
        " traces, or\n"
        "                                  on workload runs with"
        " bug-catalog checks\n"
        "  catalog <file.json>...          validate corpus bug"
        " catalogs\n"
        "  config                          validate the default"
        " ActConfig\n"
        "  weights <file>                  validate a WeightStore"
        " blob\n");
}

/** Print findings under a heading; returns the number of errors. */
std::size_t
emit(const std::string &subject, const std::vector<Finding> &findings)
{
    if (findings.empty())
        return 0;
    std::printf("%s:\n", subject.c_str());
    for (const Finding &finding : findings)
        std::printf("  %s\n", finding.toString().c_str());
    return errorCount(findings);
}

int
cmdTrace(const std::vector<std::string> &args, bool show_races)
{
    if (args.empty()) {
        usage();
        return kExitUsage;
    }
    std::size_t errors = 0;
    for (const std::string &path : args) {
        Trace trace;
        if (!readTrace(path, trace)) {
            std::printf("%s: unreadable (missing, truncated or not a "
                        "trace file)\n",
                        path.c_str());
            ++errors;
            continue;
        }
        errors += emit(path, lintTrace(trace));
        if (show_races) {
            const RaceReport report = detectRaces(trace);
            std::printf("%s: %zu racy pair(s), %llu sync / %llu memory "
                        "events\n",
                        path.c_str(), report.races().size(),
                        static_cast<unsigned long long>(
                            report.sync_events),
                        static_cast<unsigned long long>(
                            report.memory_events));
            for (const Race &race : report.races())
                std::printf("  %s\n", race.toString().c_str());
        }
    }
    return errors == 0 ? kExitClean : kExitFindings;
}

/**
 * Lint one recorded run and, for bug workloads, check the oracle
 * labels against the catalog. Returns the number of errors.
 */
std::size_t
checkWorkload(const std::string &name)
{
    const auto workload = makeWorkload(name);
    std::size_t errors = 0;

    WorkloadParams correct;
    const Trace correct_trace = workload->record(correct);
    errors += emit(name + " (correct run)", lintTrace(correct_trace));

    if (workload->failureKind() == FailureKind::kNone) {
        std::printf("%-12s kernel         lint ok\n", name.c_str());
        return errors;
    }

    WorkloadParams failing;
    failing.seed = 999;
    failing.trigger_failure = true;
    const Trace failing_trace = workload->record(failing);
    errors += emit(name + " (failing run)", lintTrace(failing_trace));

    // Oracle vs catalog: the root-cause dependence of a concurrency
    // bug must be a happens-before race on the failure path; a
    // sequential bug's traces must contain no race at all.
    const RaceReport oracle = detectRaces(failing_trace);
    const RawDependence root = workload->buggyDependence();
    const bool root_racy = oracle.isRacy(root);
    if (workload->concurrent() && !root_racy) {
        std::printf("%s: oracle disagrees with the bug catalog: root "
                    "dependence %s is not racy on the failing trace\n",
                    name.c_str(), root.toString().c_str());
        ++errors;
    }
    if (!workload->concurrent() && !oracle.empty()) {
        std::printf("%s: oracle disagrees with the bug catalog: "
                    "sequential bug shows %zu racy pair(s)\n",
                    name.c_str(), oracle.races().size());
        ++errors;
    }
    std::printf("%-12s %-14s lint ok, root %s, %zu racy pair(s)\n",
                name.c_str(),
                workload->concurrent() ? "concurrent bug"
                                       : "sequential bug",
                root_racy ? "racy" : "ordered", oracle.races().size());
    return errors;
}

int
cmdWorkloads(const std::vector<std::string> &args)
{
    registerAllWorkloads();
    std::vector<std::string> names = args;
    if (names.empty())
        names = WorkloadRegistry::instance().names();
    std::size_t errors = 0;
    for (const std::string &name : names) {
        if (!WorkloadRegistry::instance().contains(name)) {
            std::printf("unknown workload: %s\n", name.c_str());
            ++errors;
            continue;
        }
        errors += checkWorkload(name);
    }
    std::printf("%zu workload(s) checked, %zu error(s)\n", names.size(),
                errors);
    return errors == 0 ? kExitClean : kExitFindings;
}

/** All regular files under @p dir with suffix @p suffix, sorted. */
std::vector<std::string>
listFiles(const std::string &dir, const std::string &suffix)
{
    std::vector<std::string> paths;
    DIR *handle = ::opendir(dir.c_str());
    if (handle == nullptr)
        return paths;
    while (const struct dirent *entry = ::readdir(handle)) {
        const std::string name = entry->d_name;
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            paths.push_back(dir + "/" + name);
        }
    }
    ::closedir(handle);
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** Whole file into @p out; false when unreadable. */
bool
slurp(const std::string &path, std::string &out)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return false;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        out.append(buf, n);
    std::fclose(file);
    return true;
}

int
cmdReport(const std::vector<std::string> &args, std::string cache_dir)
{
    if (args.size() != 1) {
        usage();
        return kExitUsage;
    }
    const std::string &dir = args.front();
    std::size_t errors = 0;

    std::string json;
    if (!slurp(dir + "/report.json", json)) {
        std::printf("%s/report.json: unreadable\n", dir.c_str());
        ++errors;
    } else {
        std::string error;
        const auto root = telemetry::parseJson(json, &error);
        if (root == nullptr) {
            std::printf("%s/report.json: malformed (%s)\n", dir.c_str(),
                        error.c_str());
            ++errors;
        } else if (!root->isObject()) {
            std::printf("%s/report.json: malformed (not an object)\n",
                        dir.c_str());
            ++errors;
        }
    }

    std::vector<ReportRow> rows;
    if (!loadReportCsv(dir + "/report.csv", rows)) {
        std::printf("%s/report.csv: missing or malformed\n", dir.c_str());
        ++errors;
    } else if (rows.empty()) {
        std::printf("%s/report.csv: no data rows\n", dir.c_str());
        ++errors;
    }

    if (cache_dir.empty())
        cache_dir = dir + "/trace-cache";
    const std::vector<std::string> traces = listFiles(cache_dir, ".trc");
    for (const std::string &path : traces) {
        Trace trace;
        if (!readTrace(path, trace)) {
            std::printf("%s: unreadable trace\n", path.c_str());
            ++errors;
            continue;
        }
        errors += emit(path, lintTrace(trace));
    }
    std::printf("%s: %zu csv row(s), %zu cached trace(s), %zu "
                "error(s)\n",
                dir.c_str(), rows.size(), traces.size(), errors);
    return errors == 0 ? kExitClean : kExitFindings;
}

/**
 * Chunk each trace into blocks of @p block_events and run the streaming
 * batch linter over every block — exactly what the fleet service does
 * to ingress blocks under --lint-blocks, so a trace that passes here
 * will not be rejected by a linting fleet.
 */
int
cmdStream(const std::vector<std::string> &args, std::size_t block_events)
{
    if (args.empty() || block_events == 0) {
        usage();
        return kExitUsage;
    }
    std::size_t errors = 0;
    for (const std::string &path : args) {
        Trace trace;
        if (!readTrace(path, trace)) {
            std::printf("%s: unreadable (missing, truncated or not a "
                        "trace file)\n",
                        path.c_str());
            ++errors;
            continue;
        }
        const std::span<const TraceEvent> events(trace.events());
        std::size_t blocks = 0;
        for (std::size_t offset = 0; offset < events.size();
             offset += block_events) {
            const std::size_t count =
                std::min(block_events, events.size() - offset);
            errors += emit(
                path + " block " + std::to_string(blocks),
                lintEventBatch(events.subspan(offset, count)));
            ++blocks;
        }
        std::printf("%s: %zu event(s) in %zu block(s) of up to %zu\n",
                    path.c_str(), events.size(), blocks, block_events);
    }
    return errors == 0 ? kExitClean : kExitFindings;
}

/** Trace mode of `analyze`: single-trace pipeline, full findings. */
int
cmdAnalyzeTraces(const std::vector<std::string> &args)
{
    std::size_t errors = 0;
    for (const std::string &path : args) {
        Trace trace;
        if (!readTrace(path, trace)) {
            std::printf("%s: unreadable (missing, truncated or not a "
                        "trace file)\n",
                        path.c_str());
            ++errors;
            continue;
        }
        const PipelineResult result = runAnalysisPipeline(trace);
        std::printf("%s: %zu event(s), %zu finding(s), %zu racy "
                    "pair(s)\n",
                    path.c_str(), trace.size(), result.report.size(),
                    result.races.races().size());
        std::fputs(result.toText().c_str(), stdout);
    }
    return errors == 0 ? kExitClean : kExitFindings;
}

/**
 * Workload mode of `analyze`: mine atomicity/order baselines from
 * passing runs (same seed base the diagnosis pipeline trains on),
 * analyse the failing run, and check the verdicts against the bug
 * catalog. Returns the number of disagreements.
 */
std::size_t
analyzeWorkload(const std::string &name)
{
    constexpr std::uint64_t kMineSeedBase = 100;
    constexpr std::size_t kMineTraces = 10;

    const auto workload = makeWorkload(name);
    std::size_t errors = 0;

    MinedBaselines baselines;
    for (std::size_t i = 0; i < kMineTraces; ++i) {
        WorkloadParams params;
        params.seed = kMineSeedBase + i;
        baselines.addPassingTrace(workload->record(params));
    }

    const bool has_bug = workload->failureKind() != FailureKind::kNone;
    WorkloadParams failing;
    failing.seed = 999;
    failing.trigger_failure = has_bug;
    const Trace trace = workload->record(failing);

    const PipelineResult result = runAnalysisPipeline(trace, &baselines);

    char counts[128];
    std::snprintf(counts, sizeof(counts),
                  "lockset=%llu atomicity=%llu order=%llu hb=%zu",
                  static_cast<unsigned long long>(
                      result.report.countFor(DetectorKind::kLockset)),
                  static_cast<unsigned long long>(
                      result.report.countFor(DetectorKind::kAtomicity)),
                  static_cast<unsigned long long>(
                      result.report.countFor(DetectorKind::kOrder)),
                  result.races.races().size());

    if (!has_bug) {
        // Prediction kernels have no catalog entry; informational only.
        std::printf("%-12s kernel         %s\n", name.c_str(), counts);
        return errors;
    }

    const RawDependence root = workload->buggyDependence();
    std::string flagged_by;
    for (std::size_t d = 0; d < kDetectorCount; ++d) {
        const auto kind = static_cast<DetectorKind>(d);
        if (result.report.matchesPair(kind, root.store_pc,
                                      root.load_pc)) {
            if (!flagged_by.empty())
                flagged_by += '+';
            flagged_by += detectorName(kind);
        }
    }
    if (result.races.isRacy(root)) {
        if (!flagged_by.empty())
            flagged_by += '+';
        flagged_by += "hb";
    }

    // Catalog agreement: the bug's own detector class must flag the
    // root dependence; sequential bugs must produce no findings.
    switch (workload->bugClass()) {
    case BugClass::kAtomicityViolation:
        if (!result.report.matchesPair(DetectorKind::kAtomicity,
                                       root.store_pc, root.load_pc)) {
            std::printf("%s: catalog disagreement: atomicity bug not "
                        "flagged by the atomicity detector on root %s\n",
                        name.c_str(), root.toString().c_str());
            ++errors;
        }
        break;
    case BugClass::kOrderViolation:
        if (!result.report.matchesPair(DetectorKind::kOrder,
                                       root.store_pc, root.load_pc)) {
            std::printf("%s: catalog disagreement: order bug not "
                        "flagged by the order detector on root %s\n",
                        name.c_str(), root.toString().c_str());
            ++errors;
        }
        break;
    default:
        if (!result.report.empty()) {
            std::printf("%s: catalog disagreement: sequential bug "
                        "shows %zu concurrency finding(s)\n",
                        name.c_str(), result.report.size());
            ++errors;
        }
        break;
    }
    if (workload->concurrent() &&
        !result.report.matchesPairAny(root.store_pc, root.load_pc)) {
        std::printf("%s: catalog disagreement: no detector flags the "
                    "root dependence %s\n",
                    name.c_str(), root.toString().c_str());
        ++errors;
    }

    std::printf("%-12s %-14s %s root=%s\n", name.c_str(),
                workload->concurrent() ? "concurrent bug"
                                       : "sequential bug",
                counts,
                flagged_by.empty() ? "clean" : flagged_by.c_str());
    return errors;
}

int
cmdAnalyze(const std::vector<std::string> &args)
{
    // Any .trc argument selects trace mode (and then all must be .trc).
    const auto isTraceFile = [](const std::string &arg) {
        const std::string suffix = ".trc";
        return arg.size() >= suffix.size() &&
               arg.compare(arg.size() - suffix.size(), suffix.size(),
                           suffix) == 0;
    };
    const bool trace_mode =
        !args.empty() && std::any_of(args.begin(), args.end(),
                                     isTraceFile);
    if (trace_mode) {
        if (!std::all_of(args.begin(), args.end(), isTraceFile)) {
            std::fprintf(stderr, "analyze: mixing .trc files and "
                                 "workload names is not supported\n");
            return kExitUsage;
        }
        return cmdAnalyzeTraces(args);
    }

    registerAllWorkloads();
    std::vector<std::string> names = args;
    if (names.empty())
        names = WorkloadRegistry::instance().names();
    std::size_t errors = 0;
    for (const std::string &name : names) {
        if (!WorkloadRegistry::instance().contains(name)) {
            std::printf("unknown workload: %s\n", name.c_str());
            ++errors;
            continue;
        }
        errors += analyzeWorkload(name);
    }
    std::printf("%zu workload(s) analysed, %zu disagreement(s)\n",
                names.size(), errors);
    return errors == 0 ? kExitClean : kExitFindings;
}

int
cmdCatalog(const std::vector<std::string> &args)
{
    if (args.empty()) {
        usage();
        return kExitUsage;
    }
    std::size_t errors = 0;
    std::size_t valid = 0;
    for (const std::string &path : args) {
        std::string json;
        if (!slurp(path, json)) {
            std::printf("%s: unreadable\n", path.c_str());
            ++errors;
            continue;
        }
        const std::vector<Finding> findings =
            corpus::validateCatalog(json);
        errors += emit(path, findings);
        if (errorCount(findings) == 0)
            ++valid;
    }
    std::printf("%zu catalog(s) checked, %zu valid, %zu error(s)\n",
                args.size(), valid, errors);
    return errors == 0 ? kExitClean : kExitFindings;
}

int
cmdConfig()
{
    const ActConfig config;
    std::size_t errors = 0;
    const PairEncoder pair;
    const DictionaryEncoder dictionary(64);
    const HashEncoder hash;
    const struct
    {
        const char *name;
        const DependenceEncoder *encoder;
    } encoders[] = {{"pair", &pair},
                    {"dictionary", &dictionary},
                    {"hash", &hash}};
    for (const auto &[name, encoder] : encoders) {
        ActConfig adjusted = config;
        // Each encoder implies its own input width for the same N.
        adjusted.topology.inputs =
            config.sequence_length * encoder->width();
        errors += emit(std::string("default ActConfig (") + name + ")",
                       validateActConfig(adjusted, encoder->width()));
    }
    if (errors == 0)
        std::printf("default ActConfig: ok for all encoders\n");
    return errors == 0 ? kExitClean : kExitFindings;
}

int
cmdWeights(const std::vector<std::string> &args)
{
    if (args.size() != 1) {
        usage();
        return kExitUsage;
    }
    const std::string &path = args.front();
    WeightStore store;
    if (!store.load(path)) {
        std::printf("%s: unreadable weight store\n", path.c_str());
        return kExitUsage;
    }
    std::vector<Finding> findings = validateWeightStore(store);
    // Hygiene pass: denormal / Q15.16-underflow warnings the hot path
    // tolerates but a deployment should notice. (Strict repeats the
    // base errors, so keep only its warnings.)
    for (const ThreadId tid : store.tids()) {
        const auto weights = store.get(tid);
        if (!weights)
            continue;
        for (const Finding &finding :
             validateWeightsStrict(store.topology(), *weights,
                                   "tid " + std::to_string(tid))) {
            if (finding.severity == Severity::kWarning)
                findings.push_back(finding);
        }
    }
    const std::size_t errors = emit(path, findings);
    std::printf("%s: %zu thread weight set(s), topology %zux%zu, "
                "%zu error(s)\n",
                path.c_str(), store.size(), store.topology().inputs,
                store.topology().hidden, errors);
    return errors == 0 ? kExitClean : kExitFindings;
}

int
run(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kExitUsage;
    }
    const std::string command = argv[1];

    bool show_races = false;
    std::string cache_dir;
    std::size_t block_events = 512;
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--races") {
            show_races = true;
        } else if (arg == "--cache" && i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (arg == "--block" && i + 1 < argc) {
            block_events =
                static_cast<std::size_t>(std::strtoull(argv[++i],
                                                       nullptr, 10));
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return kExitUsage;
        } else {
            args.push_back(arg);
        }
    }

    if (command == "trace")
        return cmdTrace(args, show_races);
    if (command == "workloads")
        return cmdWorkloads(args);
    if (command == "report")
        return cmdReport(args, cache_dir);
    if (command == "stream")
        return cmdStream(args, block_events);
    if (command == "analyze")
        return cmdAnalyze(args);
    if (command == "catalog")
        return cmdCatalog(args);
    if (command == "config")
        return cmdConfig();
    if (command == "weights")
        return cmdWeights(args);
    usage();
    return kExitUsage;
}

} // namespace
} // namespace act

int
main(int argc, char **argv)
{
    return act::run(argc, argv);
}
