#include "faults/weight_guard.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "act/weight_store.hh"
#include "analysis/config_check.hh"
#include "common/logging.hh"
#include "telemetry/metrics.hh"

namespace act
{

std::uint64_t
weightChecksum(const std::vector<double> &weights)
{
    // FNV-1a over the stored bit patterns: any single flipped bit —
    // including ones that keep the value finite and in range, which
    // validateWeights cannot see — changes the digest.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double w : weights) {
        std::uint64_t raw = 0;
        std::memcpy(&raw, &w, sizeof(raw));
        for (std::size_t byte = 0; byte < sizeof(raw); ++byte) {
            h ^= (raw >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

WeightGuard
WeightGuard::build(const WeightStore &store,
                   const WeightProtectionConfig &config)
{
    WeightGuard guard;
    if (!config.enabled)
        return guard;

    // Probe every stored set in tid order — a deterministic
    // enumeration, so the ranking replays from the configuration alone.
    for (const ThreadId tid : store.tids()) {
        guard.ranking_.push_back(probeWeightSensitivity(
            tid, *store.get(tid), config.probes, config.probe_seed,
            kHwWeightLimit));
    }

    // Most silent damage first; ties broken by tid so the guarded
    // subset is stable across runs and platforms.
    std::sort(guard.ranking_.begin(), guard.ranking_.end(),
              [](const WeightSensitivity &a, const WeightSensitivity &b) {
                  if (a.silent_damage != b.silent_damage)
                      return a.silent_damage > b.silent_damage;
                  return a.tid < b.tid;
              });

    const auto budget = static_cast<std::size_t>(std::ceil(
        config.protect_fraction *
        static_cast<double>(guard.ranking_.size())));
    for (std::size_t i = 0; i < guard.ranking_.size() && i < budget; ++i) {
        const ThreadId tid = guard.ranking_[i].tid;
        std::vector<double> weights = *store.get(tid);
        Guard g;
        g.checksum = weightChecksum(weights);
        g.shadow = std::move(weights);
        guard.guards_.emplace(tid, std::move(g));
    }
    return guard;
}

bool
WeightGuard::inspect(ThreadId tid, std::vector<double> &weights) const
{
    const auto it = guards_.find(tid);
    if (it == guards_.end())
        return false;
    if (weightChecksum(weights) == it->second.checksum)
        return false;
    // Checksum mismatch: a stored bit flipped since the guard was
    // built. Restore the shadow copy — the caller keeps its trained
    // weights instead of quarantining into a from-scratch retrain.
    weights = it->second.shadow;
    static const telemetry::Counter repairs =
        telemetry::MetricsRegistry::global().counter(
            "faults.weight_repairs");
    repairs.inc();
    logWarnEvent("faults.weight_repair",
                 {logField("tid", std::uint64_t{tid})});
    return true;
}

} // namespace act
