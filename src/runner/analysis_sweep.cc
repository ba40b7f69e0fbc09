#include "runner/analysis_sweep.hh"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/pipeline.hh"
#include "runner/thread_pool.hh"
#include "telemetry/spans.hh"
#include "trace/io.hh"

namespace act
{

namespace
{

/** All regular files under @p dir ending in ".trc", sorted. */
std::vector<std::string>
listTraceFiles(const std::string &dir)
{
    std::vector<std::string> paths;
    DIR *handle = ::opendir(dir.c_str());
    if (handle == nullptr)
        return paths;
    const std::string suffix = ".trc";
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

/** Per-trace slot the pool tasks fill. */
struct TraceSlot
{
    bool readable = false;
    std::size_t events = 0;
    std::string text; //!< Deterministic pipeline rendering.
    std::uint64_t findings = 0;
    std::uint64_t racy_pairs = 0;
};

} // namespace

AnalysisSweepResult
analyzeCachedTraces(const std::string &cache_dir, unsigned jobs)
{
    const auto start = std::chrono::steady_clock::now();
    telemetry::ScopedSpan span("analysis.sweep", "analysis");

    const std::vector<std::string> paths = listTraceFiles(cache_dir);
    std::vector<TraceSlot> slots(paths.size());

    {
        WorkStealingPool pool(jobs);
        for (std::size_t i = 0; i < paths.size(); ++i) {
            pool.submit([&, i] {
                Trace trace;
                if (!readTrace(paths[i], trace))
                    return; // Slot stays !readable.
                TraceSlot &slot = slots[i];
                slot.readable = true;
                slot.events = trace.size();
                const PipelineResult result = runAnalysisPipeline(trace);
                slot.text = result.toText();
                slot.findings = result.report.size();
                slot.racy_pairs = result.races.races().size();
            });
        }
        pool.wait();
    }

    AnalysisSweepResult result;
    result.traces = paths.size();
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const TraceSlot &slot = slots[i];
        result.text += paths[i];
        if (!slot.readable) {
            result.text += ": unreadable\n";
            ++result.unreadable;
            continue;
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ": %zu event(s), %llu finding(s), %llu racy "
                      "pair(s)\n",
                      slot.events,
                      static_cast<unsigned long long>(slot.findings),
                      static_cast<unsigned long long>(slot.racy_pairs));
        result.text += buf;
        result.text += slot.text;
        result.findings += slot.findings;
        result.racy_pairs += slot.racy_pairs;
    }
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

} // namespace act
