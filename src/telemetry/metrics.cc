#include "telemetry/metrics.hh"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/logging.hh"
#include "telemetry/json.hh"

namespace act::telemetry
{

namespace detail
{

thread_local TlsShardCache tls_shard_cache;

} // namespace detail

namespace
{

/** Distinguishes registry instances that reuse a freed address. */
std::atomic<std::uint64_t> g_registry_generation{1};

} // namespace

MetricsRegistry::MetricsRegistry()
    : generation_(g_registry_generation.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now())
{}

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked on purpose: worker threads may still hold shard pointers
    // during static destruction.
    static MetricsRegistry *const instance = new MetricsRegistry();
    return *instance;
}

MetricsRegistry::Shard *
MetricsRegistry::shardSlow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(std::make_unique<Shard>());
    Shard *shard = shards_.back().get();
    detail::tls_shard_cache = {this, generation_, shard};
    return shard;
}

std::uint32_t
MetricsRegistry::registerScalar(const std::string &name,
                                Stability stability, bool is_gauge)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = scalar_ids_.find(name);
    if (it != scalar_ids_.end()) {
        const ScalarInfo &info = scalars_[it->second];
        if (info.is_gauge != is_gauge || info.stability != stability) {
            ACT_FATAL("telemetry: metric '"
                      << name << "' re-registered with a different "
                      << "kind or stability");
        }
        return it->second;
    }
    if (scalars_.size() >= kMaxScalarMetrics)
        ACT_FATAL("telemetry: scalar metric capacity ("
                  << kMaxScalarMetrics << ") exhausted at '" << name
                  << "'");
    const auto id = static_cast<std::uint32_t>(scalars_.size());
    scalars_.push_back(ScalarInfo{name, stability, is_gauge});
    scalar_ids_.emplace(name, id);
    return id;
}

Counter
MetricsRegistry::counter(const std::string &name, Stability stability)
{
    return Counter(this, registerScalar(name, stability, false));
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    // Gauges track levels (queue depths, in-flight work): inherently
    // scheduling dependent, so they are volatile by construction.
    return Gauge(this, registerScalar(name, Stability::kVolatile, true));
}

LatencyHistogram
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = hist_ids_.find(name);
    if (it != hist_ids_.end())
        return LatencyHistogram(this, it->second);
    if (hist_names_.size() >= kMaxHistograms)
        ACT_FATAL("telemetry: histogram capacity (" << kMaxHistograms
                                                    << ") exhausted at '"
                                                    << name << "'");
    const auto id = static_cast<std::uint32_t>(hist_names_.size());
    hist_names_.push_back(name);
    hist_ids_.emplace(name, id);
    return LatencyHistogram(this, id);
}

Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.uptime_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    for (std::uint32_t id = 0; id < scalars_.size(); ++id) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_)
            total += shard->scalars[id].load(std::memory_order_relaxed);
        const ScalarInfo &info = scalars_[id];
        if (info.is_gauge)
            snap.gauges[info.name] = static_cast<std::int64_t>(total);
        else if (info.stability == Stability::kStable)
            snap.counters[info.name] = total;
        else
            snap.volatile_counters[info.name] = total;
    }
    for (std::uint32_t id = 0; id < hist_names_.size(); ++id) {
        HistogramSnapshot hist;
        std::array<std::uint64_t, kHistogramBuckets> buckets{};
        for (const auto &shard : shards_) {
            const HistShard &hs = shard->hists[id];
            for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                buckets[b] +=
                    hs.buckets[b].load(std::memory_order_relaxed);
            hist.sum += hs.sum.load(std::memory_order_relaxed);
        }
        for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
            if (buckets[b] != 0) {
                hist.buckets.emplace_back(b, buckets[b]);
                hist.count += buckets[b];
            }
        }
        snap.histograms[hist_names_[id]] = std::move(hist);
    }
    return snap;
}

std::uint64_t
Snapshot::counterValue(const std::string &name) const
{
    const auto stable = counters.find(name);
    if (stable != counters.end())
        return stable->second;
    const auto vol = volatile_counters.find(name);
    return vol != volatile_counters.end() ? vol->second : 0;
}

Snapshot
diffSnapshots(const Snapshot &newer, const Snapshot &older)
{
    Snapshot diff = newer;
    const auto subtract = [](std::map<std::string, std::uint64_t> &into,
                             const std::map<std::string, std::uint64_t>
                                 &minus) {
        for (auto &[name, value] : into) {
            const auto it = minus.find(name);
            if (it != minus.end())
                value = value >= it->second ? value - it->second : 0;
        }
    };
    subtract(diff.counters, older.counters);
    subtract(diff.volatile_counters, older.volatile_counters);
    for (auto &[name, hist] : diff.histograms) {
        const auto it = older.histograms.find(name);
        if (it == older.histograms.end())
            continue;
        const HistogramSnapshot &old_hist = it->second;
        hist.sum = hist.sum >= old_hist.sum ? hist.sum - old_hist.sum : 0;
        hist.count = 0;
        std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
        for (auto &[bucket, count] : hist.buckets) {
            std::uint64_t base = 0;
            for (const auto &[old_bucket, old_count] : old_hist.buckets) {
                if (old_bucket == bucket)
                    base = old_count;
            }
            const std::uint64_t delta = count >= base ? count - base : 0;
            if (delta != 0) {
                buckets.emplace_back(bucket, delta);
                hist.count += delta;
            }
        }
        hist.buckets = std::move(buckets);
    }
    return diff;
}

namespace
{

template <typename Map, typename Render>
void
writeSection(std::ostringstream &out, const char *name, const Map &map,
             Render &&render, bool trailing_comma)
{
    out << "  \"" << name << "\": {";
    bool first = true;
    for (const auto &[key, value] : map) {
        out << (first ? "\n" : ",\n") << "    \"" << jsonEscape(key)
            << "\": " << render(value);
        first = false;
    }
    out << (first ? "" : "\n  ") << "}" << (trailing_comma ? "," : "")
        << "\n";
}

} // namespace

std::string
snapshotJson(const Snapshot &snapshot)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"act-metrics-v1\",\n";
    out << "  \"uptime_ms\": " << formatDouble(snapshot.uptime_ms)
        << ",\n";
    const auto number = [](std::uint64_t v) { return std::to_string(v); };
    const auto signed_number = [](std::int64_t v) {
        return std::to_string(v);
    };
    writeSection(out, "counters", snapshot.counters, number, true);
    writeSection(out, "volatile", snapshot.volatile_counters, number,
                 true);
    writeSection(out, "gauges", snapshot.gauges, signed_number, true);
    const auto hist = [](const HistogramSnapshot &h) {
        std::ostringstream cell;
        cell << "{\"count\": " << h.count << ", \"sum\": " << h.sum
             << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            cell << (i != 0 ? ", " : "") << "[" << h.buckets[i].first
                 << ", " << h.buckets[i].second << "]";
        }
        cell << "]}";
        return cell.str();
    };
    writeSection(out, "histograms", snapshot.histograms, hist, false);
    out << "}\n";
    return out.str();
}

std::string
stableCountersText(const Snapshot &snapshot)
{
    std::ostringstream out;
    for (const auto &[name, value] : snapshot.counters)
        out << name << " " << value << "\n";
    return out.str();
}

} // namespace act::telemetry
