/**
 * @file
 * actfleet — driver for the fleet-scale streaming diagnosis service.
 *
 * Subcommands:
 *   run        stream the configured client fleet through the shard
 *              pipeline and print the final diagnosis report (epoch
 *              reports go to stdout when --epoch > 0)
 *   bench      same, but duration-driven by default, and prints a
 *              machine-readable throughput line (events/s) plus the
 *              fleet telemetry counters
 *   validate   determinism gate: the final report of the streaming
 *              service must be byte-identical across --shards and
 *              --shards 1 AND to the sequential batch replay of the
 *              same configuration
 *
 * Common flags:
 *   --clients N        simulated client processes        (default 8)
 *   --shards N         diagnosis shards                  (default 2)
 *   --seed S           base seed (client i uses S + i)   (default 1)
 *   --workload NAME    fix one workload (default: rotate the
 *                      prediction-kernel catalog)
 *   --scale N          workload scale multiplier         (default 1)
 *   --repeat N         re-streams per client             (default 1)
 *   --duration SECS    stream until deadline instead of repeat
 *   --epoch SECS       incremental-report period (0 = off)
 *   --backpressure P   block | shed                      (default block)
 *   --block-events N   events per ingress block          (default 512)
 *   --queue-blocks N   ingress queue capacity            (default 64)
 *   --batch N          staged inferences per NN batch    (default 64)
 *   --top K            suspects printed in the report    (default 10)
 *   --front F          tracker | mem                     (default tracker)
 *   --lint-blocks      batch-lint every ingested block
 *
 * Exit status: 0 = ok, 1 = validation mismatch, 2 = usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/service.hh"
#include "telemetry/metrics.hh"

namespace act::fleet
{
namespace
{

constexpr int kExitOk = 0;
constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: actfleet <run|bench|validate> [flags]\n"
        "  --clients N --shards N --seed S --workload NAME --scale N\n"
        "  --repeat N --duration SECS --epoch SECS\n"
        "  --backpressure block|shed --block-events N --queue-blocks N\n"
        "  --batch N --top K --front tracker|mem --lint-blocks\n");
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

bool
parseDouble(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && out >= 0.0;
}

/** Parse flags into @p config; returns false on a usage error. */
bool
parseFlags(int argc, char **argv, FleetConfig &config)
{
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        std::uint64_t u64 = 0;
        double f64 = 0.0;
        if (arg == "--lint-blocks") {
            config.lint_blocks = true;
        } else if (!has_value) {
            std::fprintf(stderr, "flag needs a value: %s\n", arg.c_str());
            return false;
        } else if (arg == "--clients" && parseU64(argv[++i], u64)) {
            config.clients = static_cast<std::uint32_t>(u64);
        } else if (arg == "--shards" && parseU64(argv[++i], u64)) {
            config.shards = static_cast<std::uint32_t>(u64);
        } else if (arg == "--seed" && parseU64(argv[++i], u64)) {
            config.seed = u64;
        } else if (arg == "--workload") {
            config.workload = argv[++i];
        } else if (arg == "--scale" && parseU64(argv[++i], u64)) {
            config.scale = static_cast<std::uint32_t>(u64);
        } else if (arg == "--repeat" && parseU64(argv[++i], u64)) {
            config.repeat = static_cast<std::uint32_t>(u64);
        } else if (arg == "--duration" && parseDouble(argv[++i], f64)) {
            config.duration_s = f64;
        } else if (arg == "--epoch" && parseDouble(argv[++i], f64)) {
            config.epoch_s = f64;
        } else if (arg == "--backpressure") {
            const std::string policy = argv[++i];
            if (policy == "block") {
                config.backpressure = Backpressure::kBlock;
            } else if (policy == "shed") {
                config.backpressure = Backpressure::kShed;
            } else {
                std::fprintf(stderr, "unknown backpressure policy: %s\n",
                             policy.c_str());
                return false;
            }
        } else if (arg == "--block-events" && parseU64(argv[++i], u64)) {
            config.block_events = u64;
        } else if (arg == "--queue-blocks" && parseU64(argv[++i], u64)) {
            config.queue_blocks = u64;
        } else if (arg == "--batch" && parseU64(argv[++i], u64)) {
            config.batch_max = u64;
        } else if (arg == "--top" && parseU64(argv[++i], u64)) {
            config.top_k = u64;
        } else if (arg == "--front") {
            const std::string front = argv[++i];
            if (front == "tracker") {
                config.front = FrontEnd::kTracker;
            } else if (front == "mem") {
                config.front = FrontEnd::kMem;
            } else {
                std::fprintf(stderr, "unknown front-end: %s\n",
                             front.c_str());
                return false;
            }
        } else {
            std::fprintf(stderr, "bad flag or value: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

int
cmdRun(const FleetConfig &config)
{
    const FleetResult result = runFleetService(config, stdout);
    std::fputs(result.report.toText(config.top_k).c_str(), stdout);
    std::printf("wall %.3fs, %llu epoch report(s)\n", result.wall_s,
                static_cast<unsigned long long>(result.epochs));
    return kExitOk;
}

int
cmdBench(FleetConfig config)
{
    // Bench defaults: duration-driven unless the caller pinned one, so
    // throughput is measured over a steady streaming window.
    if (config.duration_s <= 0.0 && config.repeat == 1)
        config.repeat = 0, config.duration_s = 2.0;

    const FleetResult result = runFleetService(config, nullptr);
    const double events_per_s =
        result.wall_s > 0.0
            ? static_cast<double>(result.report.totals.events) /
                  result.wall_s
            : 0.0;
    std::printf("fleet_events_per_s %.0f\n", events_per_s);
    std::printf("fleet_events %llu\nfleet_wall_s %.3f\n",
                static_cast<unsigned long long>(
                    result.report.totals.events),
                result.wall_s);
    std::printf("fleet_dropped_events %llu\nfleet_dropped_blocks %llu\n",
                static_cast<unsigned long long>(
                    result.report.totals.events_dropped),
                static_cast<unsigned long long>(
                    result.report.totals.blocks_dropped));

    const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
    for (const auto &[name, value] : snapshot.volatile_counters) {
        if (name.rfind("fleet.", 0) == 0)
            std::printf("%s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
    return kExitOk;
}

int
cmdValidate(FleetConfig config)
{
    // The contract only holds for lossless, repeat-bounded streaming.
    if (config.backpressure != Backpressure::kBlock ||
        config.duration_s > 0.0 || config.repeat == 0) {
        std::fprintf(stderr, "validate requires --backpressure block "
                             "and a repeat count, not a duration\n");
        return kExitUsage;
    }

    const std::string streamed =
        runFleetService(config, nullptr).report.toText(config.top_k);

    FleetConfig single = config;
    single.shards = 1;
    const std::string single_shard =
        runFleetService(single, nullptr).report.toText(config.top_k);

    const std::string batch =
        replayFleetBatch(config).report.toText(config.top_k);

    bool ok = true;
    if (streamed != single_shard) {
        std::printf("MISMATCH: shards %u vs 1\n--- shards %u ---\n%s"
                    "--- shards 1 ---\n%s",
                    config.shards, config.shards, streamed.c_str(),
                    single_shard.c_str());
        ok = false;
    }
    if (streamed != batch) {
        std::printf("MISMATCH: streaming vs batch replay\n"
                    "--- streaming ---\n%s--- batch ---\n%s",
                    streamed.c_str(), batch.c_str());
        ok = false;
    }
    if (ok) {
        std::printf("ok: %u clients, shards %u == shards 1 == batch "
                    "replay (%zu bytes)\n",
                    config.clients, config.shards, streamed.size());
    }
    return ok ? kExitOk : kExitMismatch;
}

int
run(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return kExitUsage;
    }
    const std::string command = argv[1];
    FleetConfig config;
    if (!parseFlags(argc, argv, config)) {
        usage();
        return kExitUsage;
    }

    // The service's ingest/drop counters must always be observable —
    // the never-silent backpressure contract depends on it.
    telemetry::MetricsRegistry::global().setEnabled(true);

    if (command == "run")
        return cmdRun(config);
    if (command == "bench")
        return cmdBench(config);
    if (command == "validate")
        return cmdValidate(config);
    usage();
    return kExitUsage;
}

} // namespace
} // namespace act::fleet

int
main(int argc, char **argv)
{
    return act::fleet::run(argc, argv);
}
