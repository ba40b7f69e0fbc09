/**
 * @file
 * actrun — parallel experiment campaign driver.
 *
 * Subcommands:
 *   list                     built-in campaigns and their job counts
 *   run <campaign>           execute a campaign; write JSON+CSV reports
 *                            (campaigns with corpus cells also write
 *                            <out>/table6-corpus.txt — the per-bug-class
 *                            precision/recall table with bootstrap CIs)
 *   report <dir>             pretty-print a previously written report
 *
 * Flags for `run`:
 *   --jobs N        worker threads (default: hardware concurrency)
 *   --out DIR       report directory (default: actrun-out/<campaign>)
 *   --cache DIR     trace-cache directory (default: <out>/trace-cache;
 *                   "none" disables the disk cache)
 *   --no-mem-cache  drop the in-memory trace layer (stress disk path)
 *   --verbose       per-job progress on stderr
 *   --fail-fast     stop scheduling new jobs after the first failure
 *                   (jobs not yet started are reported as skipped)
 *   --metrics-out F   write a metrics snapshot JSON after the run
 *   --trace-out F     write a Chrome trace_event JSON after the run
 *                     (load in chrome://tracing or Perfetto)
 *   --metrics-interval S  periodic metrics line on stderr every S
 *                     seconds (implies metrics collection)
 *   --analyze       after the campaign, run the multi-detector analysis
 *                   pipeline over every cached trace and write the
 *                   deterministic per-trace report to <out>/analysis.txt
 *                   (report.json/report.csv are untouched)
 *   --log-level L     quiet | normal | debug
 *
 * Exit codes for `run`: 0 = all jobs succeeded, 3 = the campaign
 * completed but some jobs failed or were skipped (the report carries
 * the details), 2 = usage error, 1 = fatal error.
 */

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "runner/adaptivity_sweep.hh"
#include "runner/analysis_sweep.hh"
#include "runner/campaign.hh"
#include "runner/corpus_sweep.hh"
#include "runner/report.hh"
#include "runner/runner.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{
namespace
{

struct Options
{
    unsigned jobs = 0;
    std::string out;
    std::string cache;
    bool memory_cache = true;
    bool verbose = false;
    bool keep_going = true;
    std::string metrics_out;
    std::string trace_out;
    std::uint64_t metrics_interval_s = 0;
    bool analyze = false;
    std::vector<std::string> positional;
};

/**
 * Periodic stderr metrics line for long runs: every interval, print
 * the delta of a few load-bearing counters plus a derived events/s so
 * progress is visible without waiting for the final snapshot.
 */
class MetricsPulse
{
  public:
    explicit MetricsPulse(std::uint64_t interval_s)
        : interval_s_(interval_s), last_(snapshotNow()),
          thread_([this] { loop(); })
    {}

    ~MetricsPulse()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
        // Final pulse, emitted *after* the join: the partial interval
        // between the last timer tick and shutdown would otherwise be
        // silently lost, and emitting from this thread once the pulse
        // thread is dead guarantees the line can never interleave with
        // the final metrics/report write that follows destruction.
        emit();
    }

  private:
    static telemetry::Snapshot
    snapshotNow()
    {
        return telemetry::MetricsRegistry::global().snapshot();
    }

    void
    emit()
    {
        const telemetry::Snapshot now = snapshotNow();
        const telemetry::Snapshot delta = telemetry::diffSnapshots(
            now, last_);
        const double dt_ms = now.uptime_ms - last_.uptime_ms;
        const double events = static_cast<double>(
            delta.counterValue("sim.events"));
        const double rate = dt_ms > 0.0 ? events / (dt_ms / 1000.0)
                                        : 0.0;
        std::fprintf(stderr,
                     "metrics: uptime_s=%.0f events=%llu "
                     "events_per_s=%.0f jobs_ok=%llu jobs_failed=%llu "
                     "cache_hits=%llu cache_misses=%llu\n",
                     now.uptime_ms / 1000.0,
                     static_cast<unsigned long long>(
                         now.counterValue("sim.events")),
                     rate,
                     static_cast<unsigned long long>(
                         now.counterValue("runner.jobs_ok")),
                     static_cast<unsigned long long>(
                         now.counterValue("runner.jobs_failed")),
                     static_cast<unsigned long long>(
                         now.counterValue("cache.memory_hits") +
                         now.counterValue("cache.disk_hits")),
                     static_cast<unsigned long long>(
                         now.counterValue("cache.misses")));
        last_ = now;
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            if (cv_.wait_for(lock, std::chrono::seconds(interval_s_),
                             [this] { return stop_; })) {
                return;
            }
            emit();
        }
    }

    std::uint64_t interval_s_;
    telemetry::Snapshot last_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            const char *text = argv[++i];
            char *end = nullptr;
            options.jobs =
                static_cast<unsigned>(std::strtoul(text, &end, 0));
            if (end == text || *end != '\0')
                ACT_FATAL("--jobs expects a number, got: " << text);
        } else if (arg == "--out" && i + 1 < argc) {
            options.out = argv[++i];
        } else if (arg == "--cache" && i + 1 < argc) {
            options.cache = argv[++i];
        } else if (arg == "--no-mem-cache") {
            options.memory_cache = false;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--fail-fast") {
            options.keep_going = false;
        } else if (arg == "--analyze") {
            options.analyze = true;
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            options.metrics_out = argv[++i];
        } else if (arg == "--trace-out" && i + 1 < argc) {
            options.trace_out = argv[++i];
        } else if (arg == "--metrics-interval" && i + 1 < argc) {
            const char *text = argv[++i];
            char *end = nullptr;
            options.metrics_interval_s = std::strtoull(text, &end, 0);
            if (end == text || *end != '\0' ||
                options.metrics_interval_s == 0) {
                ACT_FATAL("--metrics-interval expects a positive number "
                          "of seconds, got: " << text);
            }
        } else if (arg == "--log-level" && i + 1 < argc) {
            const std::string text = argv[++i];
            LogLevel level = LogLevel::kNormal;
            if (!parseLogLevel(text, &level))
                ACT_FATAL("--log-level expects quiet|normal|debug, "
                          "got: " << text);
            setLogLevel(level);
        } else if (arg.rfind("--", 0) == 0) {
            ACT_FATAL("unknown flag: " << arg);
        } else {
            options.positional.push_back(arg);
        }
    }
    return options;
}

int
cmdList()
{
    std::printf("%-16s %-6s %s\n", "campaign", "jobs", "description");
    for (const auto &name : campaignNames()) {
        const Campaign campaign = makeCampaign(name);
        std::printf("%-16s %-6zu %s\n", name.c_str(),
                    campaign.jobs.size(), campaign.description.c_str());
    }
    return 0;
}

int
cmdRun(const Options &options)
{
    if (options.positional.size() != 1)
        ACT_FATAL("usage: actrun run <campaign> [--jobs N] [--out DIR] "
                  "[--cache DIR]");
    const std::string name = options.positional[0];
    if (!campaignExists(name))
        ACT_FATAL("unknown campaign: " << name
                                       << " (see `actrun list`)");
    const Campaign campaign = makeCampaign(name);

    const std::string out =
        options.out.empty() ? "actrun-out/" + name : options.out;
    // mkdir -p for the output directory.
    std::string prefix;
    for (std::size_t i = 0; i <= out.size(); ++i) {
        if (i == out.size() || out[i] == '/') {
            if (!prefix.empty() && prefix != ".")
                ::mkdir(prefix.c_str(), 0755);
        }
        if (i < out.size())
            prefix += out[i];
    }

    RunOptions run_options;
    run_options.jobs = options.jobs;
    run_options.memory_cache = options.memory_cache;
    run_options.verbose = options.verbose;
    run_options.keep_going = options.keep_going;
    if (options.cache == "none")
        run_options.cache_dir.clear();
    else if (!options.cache.empty())
        run_options.cache_dir = options.cache;
    else
        run_options.cache_dir = out + "/trace-cache";

    // Telemetry stays dormant unless a flag asks for it: reports are
    // byte-identical with and without these switches.
    const bool want_metrics = !options.metrics_out.empty() ||
                              options.metrics_interval_s != 0;
    if (want_metrics)
        telemetry::MetricsRegistry::global().setEnabled(true);
    if (!options.trace_out.empty()) {
        telemetry::SpanTracer::global().setEnabled(true);
        telemetry::SpanTracer::global().nameThread("main");
    }
    std::unique_ptr<MetricsPulse> pulse;
    if (options.metrics_interval_s != 0)
        pulse = std::make_unique<MetricsPulse>(options.metrics_interval_s);

    std::printf("campaign %s: %zu jobs\n", name.c_str(),
                campaign.jobs.size());
    const CampaignRunResult run = runCampaign(campaign, run_options);
    pulse.reset();

    const std::string json_path = out + "/report.json";
    const std::string csv_path = out + "/report.csv";
    if (!writeTextFile(json_path, reportJson(campaign, run.results)))
        ACT_FATAL("cannot write " << json_path);
    if (!writeTextFile(csv_path, reportCsv(campaign, run.results)))
        ACT_FATAL("cannot write " << csv_path);

    std::printf("threads:      %u (steals: %llu)\n", run.threads,
                static_cast<unsigned long long>(run.steals));
    std::printf("wall clock:   %.0f ms\n", run.wall_ms);
    std::printf("trace cache:  %llu hits (%llu memory, %llu disk), "
                "%llu misses, %llu stored, %llu evicted, "
                "%llu quarantined\n",
                static_cast<unsigned long long>(run.cache.hits()),
                static_cast<unsigned long long>(run.cache.memory_hits),
                static_cast<unsigned long long>(run.cache.disk_hits),
                static_cast<unsigned long long>(run.cache.misses),
                static_cast<unsigned long long>(run.cache.stores),
                static_cast<unsigned long long>(run.cache.evictions),
                static_cast<unsigned long long>(
                    run.cache.checksum_rejects));
    std::printf("report:       %s, %s\n", json_path.c_str(),
                csv_path.c_str());

    if (campaignHasCorpus(campaign)) {
        // Corpus campaigns get the joined per-bug-class P/R table next
        // to the raw per-job rows. Pure function of the results, so it
        // inherits the report's cross---jobs byte-identity.
        const std::string table_path = out + "/table6-corpus.txt";
        if (!writeTextFile(table_path,
                           corpusSweepReport(campaign, run.results)))
            ACT_FATAL("cannot write " << table_path);
        std::printf("corpus:       %s\n", table_path.c_str());
    }

    if (campaignHasAdaptivity(campaign)) {
        // Adaptivity campaigns get the per-configuration degradation
        // table next to the raw rows. Pure function of the results, so
        // it inherits the report's cross---jobs byte-identity.
        const std::string table_path = out + "/table-adaptivity.txt";
        if (!writeTextFile(table_path,
                           adaptivitySweepReport(campaign, run.results)))
            ACT_FATAL("cannot write " << table_path);
        std::printf("adaptivity:   %s\n", table_path.c_str());
    }

    if (options.analyze) {
        if (run_options.cache_dir.empty()) {
            ACT_FATAL("--analyze needs a disk trace cache "
                      "(incompatible with --cache none)");
        }
        const AnalysisSweepResult sweep =
            analyzeCachedTraces(run_options.cache_dir, options.jobs);
        const std::string analysis_path = out + "/analysis.txt";
        if (!writeTextFile(analysis_path, sweep.text))
            ACT_FATAL("cannot write " << analysis_path);
        std::printf("analysis:     %zu trace(s), %llu finding(s), "
                    "%llu racy pair(s), %zu unreadable, %.0f ms -> %s\n",
                    sweep.traces,
                    static_cast<unsigned long long>(sweep.findings),
                    static_cast<unsigned long long>(sweep.racy_pairs),
                    sweep.unreadable, sweep.wall_ms,
                    analysis_path.c_str());
    }

    if (!options.metrics_out.empty()) {
        const std::string json = telemetry::snapshotJson(
            telemetry::MetricsRegistry::global().snapshot());
        if (!writeTextFile(options.metrics_out, json))
            ACT_FATAL("cannot write " << options.metrics_out);
        std::printf("metrics:      %s\n", options.metrics_out.c_str());
    }
    if (!options.trace_out.empty()) {
        if (!telemetry::SpanTracer::global().exportTo(options.trace_out))
            ACT_FATAL("cannot write " << options.trace_out);
        std::printf("trace:        %s\n", options.trace_out.c_str());
    }

    // Partial failure is not success: list every failed job and exit
    // with a code scripts can tell apart from a fatal error.
    const std::uint64_t failed = run.failedJobs();
    if (failed != 0) {
        std::printf("\nFAILED JOBS (%llu of %zu):\n",
                    static_cast<unsigned long long>(failed),
                    campaign.jobs.size());
        std::printf("  %-4s %-16s %-14s %-10s %s\n", "id", "workload",
                    "kind", "failure", "error");
        for (const JobResult &result : run.results) {
            if (result.failure == JobFailure::kNone)
                continue;
            const JobSpec &spec = campaign.jobs[result.id];
            std::printf("  %-4u %-16s %-14s %-10s %s\n", result.id,
                        spec.workload.c_str(), jobKindName(spec.kind),
                        jobFailureName(result.failure),
                        result.error.c_str());
        }
        return 3;
    }
    return 0;
}

int
cmdReport(const Options &options)
{
    if (options.positional.size() != 1)
        ACT_FATAL("usage: actrun report <dir>");
    const std::string path = options.positional[0] + "/report.csv";
    std::vector<ReportRow> rows;
    if (!loadReportCsv(path, rows))
        ACT_FATAL("cannot read " << path);

    // Group rows back into jobs (rows arrive in job order).
    std::uint32_t current = ~0u;
    for (const auto &row : rows) {
        if (row.id != current) {
            current = row.id;
            std::printf("\n[%u] %s / %s (%s, seed %llu)\n", row.id,
                        row.workload.c_str(), row.scheme.c_str(),
                        row.kind.c_str(),
                        static_cast<unsigned long long>(row.seed));
        }
        std::printf("    %-18s %s\n", row.key.c_str(), row.value.c_str());
    }
    std::printf("\n%zu rows\n", rows.size());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: actrun <list|run|report> [args] [--jobs N] "
                 "[--out DIR] [--cache DIR] [--no-mem-cache] "
                 "[--verbose] [--fail-fast] [--metrics-out F] "
                 "[--trace-out F] [--metrics-interval S] [--analyze] "
                 "[--log-level L]\n");
    return 2;
}

} // namespace
} // namespace act

int
main(int argc, char **argv)
{
    using namespace act;
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    const Options options = parse(argc, argv);
    if (command == "list")
        return cmdList();
    if (command == "run")
        return cmdRun(options);
    if (command == "report")
        return cmdReport(options);
    return usage();
}
