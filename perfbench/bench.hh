/**
 * @file
 * Shared pieces of the benchmark: options, the report every workload
 * fills in, and the layer clock the traced runs use.
 *
 * Spans are taken here, around calls into each `src/` module's public
 * functions; nothing inside the libraries is instrumented.
 */

#ifndef ACT_PERFBENCH_BENCH_HH
#define ACT_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace act::perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
elapsed(Clock::time_point from, Clock::time_point to = Clock::now())
{
    return std::chrono::duration<double>(to - from).count();
}

/**
 * Largest relative gap allowed between the summed layer times of a
 * traced run and the untraced end-to-end time of the same work. The
 * layers of `diagnose` and `fleet_stream` come from the benchmark's own
 * rebuild of a library call, and inside one process the rebuild and the
 * library call draw different luck from the address layout: over 31
 * traced processes the gap reached 19% (README, Per-layer metrics).
 */
inline constexpr double kLayerSumTolerance = 0.30;

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; //!< Measured time of one run.
    bool trace = false;    //!< Per-layer (traced) run.
    bool small = false;    //!< Self-test size: tiny inputs, one pass.
    std::string work_dir;  //!< Scratch space inside the checkout.
};

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Report
{
    std::uint64_t attempted = 0; //!< Operations attempted.
    std::uint64_t failed = 0;    //!< Operations that failed a check.
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one failed operation and say why on stderr. */
    void
    fail(const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "actbench: check failed: %s\n", why.c_str());
    }

    /** fail(@p why) unless @p ok. */
    void
    check(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
    }
};

/** Median of @p values (0 when empty). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

/** Host time charged to named layers. */
class Layers
{
  public:
    /** Run @p fn and charge its wall time to @p layer. */
    template <typename Fn>
    void
    time(const std::string &layer, Fn &&fn)
    {
        const auto start = Clock::now();
        fn();
        seconds_[layer] += elapsed(start);
    }

    void charge(const std::string &layer, double s) { seconds_[layer] += s; }

    double
    get(const std::string &layer) const
    {
        const auto it = seconds_.find(layer);
        return it == seconds_.end() ? 0.0 : it->second;
    }

    /** Sum over every layer. */
    double
    total() const
    {
        double sum = 0.0;
        for (const auto &entry : seconds_)
            sum += entry.second;
        return sum;
    }

  private:
    std::map<std::string, double> seconds_;
};

/**
 * Add the throughput as measured, before rescaling to the reference
 * host speed, and how much slower than the reference the host ran.
 */
inline void
addHostMetrics(Report &report, double raw_ops_per_s, double slowdown)
{
    report.add("bench.raw_ops_per_s", raw_ops_per_s, "1/s");
    report.add("bench.host_slowdown", slowdown, "ratio");
}

/**
 * Add the layer-sum and tracing-overhead metrics shared by every traced
 * run, and fail the run when the layers miss the untraced time by more
 * than kLayerSumTolerance (not at self-test size, where the intervals
 * are too short to hold a tolerance).
 *
 * @param layer_sum   Summed layer times of the traced work.
 * @param untraced_s  Untraced time of the same work.
 * @param traced_s    Wall time of the traced work, tracing included.
 */
inline void
addLayerSum(const Options &options, Report &report, double layer_sum,
            double untraced_s, double traced_s)
{
    const double ratio = untraced_s > 0.0 ? layer_sum / untraced_s : 0.0;
    report.add("bench.layer_sum_ratio", ratio, "ratio");
    report.add("bench.tracing_overhead",
               untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0,
               "ratio");
    report.check(options.small || (ratio >= 1.0 - kLayerSumTolerance &&
                                   ratio <= 1.0 + kLayerSumTolerance),
                 "layer times sum to " + std::to_string(ratio) +
                     " of the untraced time");
}

Report runDiagnose(const Options &options);
Report runProduction(const Options &options);
Report runFleetStream(const Options &options);

} // namespace act::perfbench

#endif // ACT_PERFBENCH_BENCH_HH
