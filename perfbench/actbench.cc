/**
 * @file
 * Benchmark binary: runs one workload once and prints its metrics.
 *
 *   actbench --workload diagnose|production|fleet_stream --seed N
 *            --seconds S --trace 0|1 --work-dir DIR [--small]
 *
 * Human-readable lines go to stdout first; the last line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. `run.py` builds
 * this binary, fills in the layers a workload does not use, and checks
 * the metric set against BENCHMARK.json.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "workloads/workload.hh"

namespace
{

using act::perfbench::Options;
using act::perfbench::Report;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "actbench: %s\nusage: actbench --workload "
                 "diagnose|production|fleet_stream --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--small]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--small") {
            options.small = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 0);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            options.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--work-dir")
            options.work_dir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (options.work_dir.empty())
        usage("--work-dir is required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

void
printReport(const Report &report)
{
    for (const auto &m : report.metrics)
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 && report.attempted > 0 ? "true"
                                                           : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &m = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    std::filesystem::create_directories(options.work_dir);
    act::registerAllWorkloads();

    Report report;
    if (options.workload == "diagnose")
        report = act::perfbench::runDiagnose(options);
    else if (options.workload == "production")
        report = act::perfbench::runProduction(options);
    else if (options.workload == "fleet_stream")
        report = act::perfbench::runFleetStream(options);
    else
        usage(("unknown workload " + options.workload).c_str());

    for (const auto &m : report.metrics) {
        if (!std::isfinite(m.value))
            report.fail("metric " + m.name + " is not finite");
    }
    printReport(report);
    return 0;
}
