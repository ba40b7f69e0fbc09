#include "fleet/report.hh"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace act::fleet
{

void
FleetReport::addSuspect(Pc store_pc, Pc load_pc, double raw)
{
    SuspectStat &stat = suspects[{store_pc, load_pc}];
    if (stat.count == 0 || raw < stat.min_raw)
        stat.min_raw = raw;
    ++stat.count;
}

void
FleetReport::merge(const FleetReport &other)
{
    totals.clients += other.totals.clients;
    totals.events += other.totals.events;
    totals.blocks += other.totals.blocks;
    totals.dependences += other.totals.dependences;
    totals.predictions += other.totals.predictions;
    totals.flagged += other.totals.flagged;
    totals.input_overwrites += other.totals.input_overwrites;
    totals.debug_overwrites += other.totals.debug_overwrites;
    totals.events_dropped += other.totals.events_dropped;
    totals.blocks_dropped += other.totals.blocks_dropped;
    totals.lint_rejects += other.totals.lint_rejects;

    for (const auto &[pair, stat] : other.suspects) {
        SuspectStat &mine = suspects[pair];
        if (mine.count == 0 || stat.min_raw < mine.min_raw)
            mine.min_raw = stat.min_raw;
        mine.count += stat.count;
    }
}

std::string
FleetReport::toText(std::size_t top_k) const
{
    // Fixed formats throughout: this text is the byte-comparable
    // artefact of the equivalence contract.
    std::string out;
    char line[192];
    const auto emit = [&out, &line] { out += line; };

    std::snprintf(line, sizeof(line), "fleet diagnosis report\n");
    emit();
    std::snprintf(line, sizeof(line),
                  "clients %llu events %llu blocks %llu\n",
                  static_cast<unsigned long long>(totals.clients),
                  static_cast<unsigned long long>(totals.events),
                  static_cast<unsigned long long>(totals.blocks));
    emit();
    std::snprintf(line, sizeof(line),
                  "dependences %llu predictions %llu flagged %llu\n",
                  static_cast<unsigned long long>(totals.dependences),
                  static_cast<unsigned long long>(totals.predictions),
                  static_cast<unsigned long long>(totals.flagged));
    emit();
    std::snprintf(
        line, sizeof(line),
        "overwrites input %llu debug %llu dropped events %llu "
        "blocks %llu lint_rejects %llu\n",
        static_cast<unsigned long long>(totals.input_overwrites),
        static_cast<unsigned long long>(totals.debug_overwrites),
        static_cast<unsigned long long>(totals.events_dropped),
        static_cast<unsigned long long>(totals.blocks_dropped),
        static_cast<unsigned long long>(totals.lint_rejects));
    emit();

    std::vector<std::pair<std::pair<Pc, Pc>, SuspectStat>> ranked(
        suspects.begin(), suspects.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.count != b.second.count)
                      return a.second.count > b.second.count;
                  if (a.second.min_raw != b.second.min_raw)
                      return a.second.min_raw < b.second.min_raw;
                  return a.first < b.first;
              });
    if (ranked.size() > top_k)
        ranked.resize(top_k);

    std::snprintf(line, sizeof(line), "top suspects %zu of %zu\n",
                  ranked.size(), suspects.size());
    emit();
    std::size_t rank = 1;
    for (const auto &[pair, stat] : ranked) {
        std::snprintf(line, sizeof(line),
                      "%2zu. store=0x%llx load=0x%llx count=%llu "
                      "min_raw=%.6f\n",
                      rank++, static_cast<unsigned long long>(pair.first),
                      static_cast<unsigned long long>(pair.second),
                      static_cast<unsigned long long>(stat.count),
                      stat.min_raw);
        emit();
    }
    return out;
}

} // namespace act::fleet
