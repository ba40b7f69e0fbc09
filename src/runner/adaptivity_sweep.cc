#include "runner/adaptivity_sweep.hh"

#include <algorithm>
#include <cstdio>
#include <map>

namespace act
{

namespace
{

/** printf into a std::string (small local copy of bench::format). */
template <typename... Args>
std::string
format(const char *fmt, Args... args)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

} // namespace

std::string
adaptivityConfigLabel(const JobKnobs &knobs)
{
    return knobs.protect_weights ? "protected" : "baseline";
}

bool
campaignHasAdaptivity(const Campaign &campaign)
{
    for (const JobSpec &spec : campaign.jobs) {
        if (spec.kind == JobKind::kAdaptivity)
            return true;
    }
    return false;
}

std::vector<AdaptivityOutcome>
adaptivityOutcomes(const Campaign &campaign,
                   const std::vector<JobResult> &results)
{
    std::map<std::uint32_t, const JobResult *> by_id;
    for (const JobResult &result : results)
        by_id[result.id] = &result;

    const auto metric = [](const JobResult &result, const char *key,
                           double fallback) {
        const auto it = result.metrics.find(key);
        return it == result.metrics.end() ? fallback : it->second;
    };

    std::vector<AdaptivityOutcome> outcomes;
    for (const JobSpec &spec : campaign.jobs) {
        if (spec.kind != JobKind::kAdaptivity)
            continue;
        const auto it = by_id.find(spec.id);
        if (it == by_id.end() || !it->second->ok)
            continue;
        const JobResult &result = *it->second;

        AdaptivityOutcome outcome;
        const auto config = result.labels.find("config");
        outcome.config =
            config == result.labels.end() ? "?" : config->second;
        outcome.fault_rate = metric(result, "fault_rate", 0.0);
        outcome.accuracy = metric(result, "accuracy", 0.0);
        outcome.repaired = metric(result, "repaired_weight_sets", 0.0);
        outcome.quarantined =
            metric(result, "quarantined_weight_sets", 0.0);
        outcome.mode_switches = metric(result, "mode_switches", 0.0);
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

std::string
adaptivitySweepReport(const Campaign &campaign,
                      const std::vector<JobResult> &results)
{
    const std::vector<AdaptivityOutcome> outcomes =
        adaptivityOutcomes(campaign, results);

    std::string text;
    text += "table-adaptivity: diagnosis accuracy vs stored-weight "
            "fault rate\n";
    text += format("%-10s %8s %9s %7s %6s %6s\n", "config", "rate",
                   "accuracy", "repair", "quar", "modes");

    // Per-cell rows, in job id order (configs are contiguous blocks).
    for (const AdaptivityOutcome &o : outcomes) {
        text += format("%-10s %8.3f %9.3f %7.0f %6.0f %6.0f\n",
                       o.config.c_str(), o.fault_rate, o.accuracy,
                       o.repaired, o.quarantined, o.mode_switches);
    }

    // Per-configuration degradation summary: accuracy lost between the
    // clean cell and the *worst* swept rate — robustness is a
    // worst-case property, and the damage regime is not monotone in
    // the rate (silent in-range corruption hurts the baseline more
    // than gross corruption its quarantine catches). Smaller is
    // better; the campaign's acceptance bar is protected < baseline.
    text += "\naccuracy loss (clean -> worst swept rate), "
            "by configuration:\n";
    std::vector<std::string> configs;
    for (const AdaptivityOutcome &o : outcomes) {
        if (std::find(configs.begin(), configs.end(), o.config) ==
            configs.end()) {
            configs.push_back(o.config);
        }
    }
    for (const std::string &config : configs) {
        double base = 0.0, worst = 2.0, worst_rate = 0.0;
        for (const AdaptivityOutcome &o : outcomes) {
            if (o.config != config)
                continue;
            if (o.fault_rate == 0.0) {
                base = o.accuracy;
            } else if (o.accuracy < worst) {
                worst = o.accuracy;
                worst_rate = o.fault_rate;
            }
        }
        if (worst > 1.0)
            worst = base; // No swept cells: nothing lost.
        text += format("  %-10s %9.3f (%.3f -> %.3f at rate %.3f)\n",
                       config.c_str(), base - worst, base, worst,
                       worst_rate);
    }
    return text;
}

} // namespace act
