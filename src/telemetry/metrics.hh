/**
 * @file
 * Process-wide, thread-sharded metrics registry.
 *
 * The paper's premise is always-on, low-overhead production monitoring;
 * this module gives the runner/AM stack the same property. Three metric
 * kinds:
 *
 *  - Counter: monotonic u64. The hot path is one relaxed fetch_add on a
 *    per-thread shard slot — no locks, no false sharing with readers.
 *  - Gauge: signed level tracked as a sum of per-shard deltas
 *    (inc/dec); the snapshot sums the shards.
 *  - LatencyHistogram: log2-bucketed u64 samples (bucket index =
 *    bit_width(value)), for timing distributions where exact values
 *    are noise anyway.
 *
 * Dormancy contract: the registry is disabled by default and every
 * recording call is a relaxed load + branch when disabled. Nothing here
 * ever writes to reports or stdout, so enabling telemetry cannot
 * perturb the science — fig7a/table4/table5/smoke reports stay
 * byte-identical with or without it (asserted by tests and CI).
 *
 * Determinism contract: metrics declare a Stability at registration.
 * kStable counters are pure event counts of deterministic per-job
 * computations — their snapshot *values* are byte-identical across
 * `--jobs 1` and `--jobs 4` (asserted the same way the golden
 * determinism test pins reports). kVolatile covers anything scheduling
 * or cache dependent (steals, queue depths, cache hits, durations).
 *
 * Thread shards are owned by the registry and survive thread exit, so
 * counts from joined workers stay visible; a snapshot merges all shards
 * under the registration mutex.
 */

#ifndef ACT_TELEMETRY_METRICS_HH
#define ACT_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace act::telemetry
{

/** Determinism class of a metric (see file comment). */
enum class Stability : std::uint8_t
{
    kStable,  //!< Byte-identical across thread counts for one campaign.
    kVolatile //!< Scheduling/cache/timing dependent.
};

/** Fixed shard capacities: registration past these is a fatal error. */
inline constexpr std::size_t kMaxScalarMetrics = 256;
inline constexpr std::size_t kMaxHistograms = 64;

/** Bucket i of a histogram counts samples with bit_width(v) == i. */
inline constexpr std::size_t kHistogramBuckets = 65;

class MetricsRegistry;

namespace detail
{

/** Per-thread cache of the calling thread's shard of one registry. */
struct TlsShardCache
{
    const void *registry = nullptr;
    std::uint64_t generation = 0;
    void *shard = nullptr;
};

extern thread_local TlsShardCache tls_shard_cache;

} // namespace detail

/** Monotonic counter handle (cheap to copy, safe to keep in statics). */
class Counter
{
  public:
    Counter() = default;

    /** Add @p n; no-op while the registry is disabled. */
    inline void add(std::uint64_t n = 1) const;
    void inc() const { add(1); }

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *registry, std::uint32_t id)
        : registry_(registry), id_(id)
    {}

    MetricsRegistry *registry_ = nullptr;
    std::uint32_t id_ = 0;
};

/** Signed level tracked as a sum of per-shard deltas. */
class Gauge
{
  public:
    Gauge() = default;

    /** Apply a delta; no-op while the registry is disabled. */
    inline void add(std::int64_t delta) const;
    void inc() const { add(1); }
    void dec() const { add(-1); }

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *registry, std::uint32_t id)
        : registry_(registry), id_(id)
    {}

    MetricsRegistry *registry_ = nullptr;
    std::uint32_t id_ = 0;
};

/** Log2-bucketed histogram handle. */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;

    /** Record one sample; no-op while the registry is disabled. */
    inline void record(std::uint64_t value) const;

    /** Bucket a value lands in: bit_width(value), 0 for value == 0. */
    static constexpr std::uint32_t
    bucketOf(std::uint64_t value)
    {
        return static_cast<std::uint32_t>(std::bit_width(value));
    }

    /** Inclusive upper bound of @p bucket (2^bucket - 1). */
    static constexpr std::uint64_t
    bucketUpperBound(std::uint32_t bucket)
    {
        return bucket >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << bucket) - 1;
    }

  private:
    friend class MetricsRegistry;
    LatencyHistogram(MetricsRegistry *registry, std::uint32_t id)
        : registry_(registry), id_(id)
    {}

    MetricsRegistry *registry_ = nullptr;
    std::uint32_t id_ = 0;
};

/** Merged view of one histogram. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /** (bucket index, count), sparse, ascending by index. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    double mean() const
    {
        return count != 0 ? static_cast<double>(sum) /
                                static_cast<double>(count)
                          : 0.0;
    }
};

/** Point-in-time merged view of a whole registry. */
struct Snapshot
{
    /** Stable counters (the determinism-contract section). */
    std::map<std::string, std::uint64_t> counters;

    /** Volatile counters (scheduling/cache dependent). */
    std::map<std::string, std::uint64_t> volatile_counters;

    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Milliseconds since the registry was constructed. */
    double uptime_ms = 0.0;

    /** Value of a counter in either section (0 when absent). */
    std::uint64_t counterValue(const std::string &name) const;
};

/**
 * Counter-wise difference @p newer - @p older (counters saturate at 0
 * if @p older is ahead — distinct registries were mixed). Gauges and
 * uptime keep the newer snapshot's values; histogram counts subtract.
 */
Snapshot diffSnapshots(const Snapshot &newer, const Snapshot &older);

/** Serialise (schema "act-metrics-v1", stable key order). */
std::string snapshotJson(const Snapshot &snapshot);

/**
 * Canonical "name value" lines of the *stable* counters only — the
 * byte-comparable artefact of the determinism contract (`actstat
 * counters` prints exactly this).
 */
std::string stableCountersText(const Snapshot &snapshot);

/**
 * The registry. One process-wide instance via global(); tests build
 * private instances freely.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry (never destroyed). */
    static MetricsRegistry &global();

    /** Master switch; all recording is a no-op while disabled. */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Register (or look up) a metric. Registration is idempotent —
     * the same name always yields the same slot — and allowed while
     * disabled, so call sites can cache handles in local statics.
     * Re-registering a name as a different kind or stability is fatal.
     */
    Counter counter(const std::string &name,
                    Stability stability = Stability::kStable);
    Gauge gauge(const std::string &name);
    LatencyHistogram histogram(const std::string &name);

    /** Merge every shard into a point-in-time view. */
    Snapshot snapshot() const;

  private:
    friend class Counter;
    friend class Gauge;
    friend class LatencyHistogram;

    struct HistShard
    {
        std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
            buckets{};
        std::atomic<std::uint64_t> sum{0};
    };

    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, kMaxScalarMetrics>
            scalars{};
        std::array<HistShard, kMaxHistograms> hists{};
    };

    struct ScalarInfo
    {
        std::string name;
        Stability stability = Stability::kStable;
        bool is_gauge = false;
    };

    /** This thread's shard (creating + caching it on first use). */
    Shard *shardSlow();

    inline Shard *
    shard()
    {
        auto &cache = detail::tls_shard_cache;
        if (cache.registry == this && cache.generation == generation_)
            return static_cast<Shard *>(cache.shard);
        return shardSlow();
    }

    std::uint32_t registerScalar(const std::string &name,
                                 Stability stability, bool is_gauge);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<ScalarInfo> scalars_;
    std::vector<std::string> hist_names_;
    std::map<std::string, std::uint32_t> scalar_ids_;
    std::map<std::string, std::uint32_t> hist_ids_;
    std::atomic<bool> enabled_{false};
    std::uint64_t generation_;
    std::chrono::steady_clock::time_point epoch_;
};

inline void
Counter::add(std::uint64_t n) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    registry_->shard()->scalars[id_].fetch_add(n,
                                               std::memory_order_relaxed);
}

inline void
Gauge::add(std::int64_t delta) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    // Two's-complement wraparound: the snapshot's signed sum of all
    // shard deltas reconstructs the level exactly.
    registry_->shard()->scalars[id_].fetch_add(
        static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
}

inline void
LatencyHistogram::record(std::uint64_t value) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    auto &hist = registry_->shard()->hists[id_];
    hist.buckets[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    hist.sum.fetch_add(value, std::memory_order_relaxed);
}

} // namespace act::telemetry

#endif // ACT_TELEMETRY_METRICS_HH
