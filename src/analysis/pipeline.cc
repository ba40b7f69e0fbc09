#include "analysis/pipeline.hh"

#include <cstdio>
#include <unordered_set>

#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"

namespace act
{

namespace
{

/** Registry handles (stable: detector output is a pure function of the
 *  trace set analysed). */
struct AnalysisMetrics
{
    telemetry::Counter runs;
    telemetry::Counter events;
    telemetry::Counter findings;
    telemetry::Counter racy_pairs;

    static const AnalysisMetrics &
    get()
    {
        static const AnalysisMetrics metrics = [] {
            auto &reg = telemetry::MetricsRegistry::global();
            const auto kStable = telemetry::Stability::kStable;
            AnalysisMetrics m;
            m.runs = reg.counter("analysis.runs", kStable);
            m.events = reg.counter("analysis.events", kStable);
            m.findings = reg.counter("analysis.findings", kStable);
            m.racy_pairs = reg.counter("analysis.racy_pairs", kStable);
            return m;
        }();
        return metrics;
    }
};

std::uint64_t
pairKey(Pc store_pc, Pc load_pc)
{
    return hash3(store_pc, load_pc, 0x9a12);
}

} // namespace

std::string
PipelineResult::toText() const
{
    std::string out;
    char buf[96];
    for (std::size_t d = 0; d < kDetectorCount; ++d) {
        const auto kind = static_cast<DetectorKind>(d);
        if (kind == DetectorKind::kOrder && !order_checked)
            continue;
        std::snprintf(buf, sizeof(buf), "%-10s %zu finding(s)\n",
                      detectorName(kind), report.countFor(kind));
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%-10s %zu racy pair(s)\n", "hb",
                  races.races().size());
    out += buf;
    for (const AnalysisFinding &finding : report.ranked()) {
        out += "  ";
        out += finding.toString();
        out += '\n';
    }
    for (const Race &race : races.races()) {
        out += "  hb/";
        out += race.toString();
        out += '\n';
    }
    return out;
}

PipelineResult
runAnalysisPipeline(const Trace &trace, const MinedBaselines *baselines)
{
    telemetry::ScopedSpan span("analysis.pipeline", "analysis");
    PipelineResult result;
    result.report.merge(detectLocksetRaces(trace));
    result.report.merge(detectAtomicityViolations(
        trace, baselines != nullptr ? &baselines->atomicity : nullptr));
    if (baselines != nullptr) {
        result.report.merge(checkOrderViolations(trace, baselines->order));
        result.order_checked = true;
    }
    result.races = detectRaces(trace);

    const AnalysisMetrics &m = AnalysisMetrics::get();
    m.runs.inc();
    m.events.add(trace.size());
    m.findings.add(result.report.size());
    m.racy_pairs.add(result.races.races().size());
    return result;
}

EnsembleScore
scoreEnsemble(const PipelineResult &result,
              const std::vector<RawDependence> &predictions)
{
    // Dedup to distinct inter-thread static pairs, preserving order.
    std::vector<std::pair<Pc, Pc>> pairs;
    std::unordered_set<std::uint64_t> seen;
    for (const RawDependence &dep : predictions) {
        if (!dep.inter_thread)
            continue;
        if (seen.insert(pairKey(dep.store_pc, dep.load_pc)).second)
            pairs.emplace_back(dep.store_pc, dep.load_pc);
    }

    const auto pairPredicted = [&seen](Pc a, Pc b) {
        return seen.count(pairKey(a, b)) != 0 ||
               seen.count(pairKey(b, a)) != 0;
    };

    EnsembleScore score;
    for (std::size_t d = 0; d < kDetectorCount; ++d) {
        const auto kind = static_cast<DetectorKind>(d);
        OracleScore lens;
        for (const auto &[store_pc, load_pc] : pairs) {
            ++lens.considered;
            if (result.report.matchesPair(kind, store_pc, load_pc))
                ++lens.true_positives;
            else
                ++lens.false_positives;
        }
        for (const AnalysisFinding &finding :
             result.report.findings()) {
            if (finding.detector != kind)
                continue;
            bool matched = false;
            for (const auto &[store_pc, load_pc] : pairs) {
                if (finding.coversPair(store_pc, load_pc)) {
                    matched = true;
                    break;
                }
            }
            if (!matched)
                ++lens.false_negatives;
        }
        score.per_detector[detectorName(kind)] = lens;
    }

    {
        OracleScore hb;
        for (const auto &[store_pc, load_pc] : pairs) {
            ++hb.considered;
            if (result.races.isRacyPair(store_pc, load_pc))
                ++hb.true_positives;
            else
                ++hb.false_positives;
        }
        for (const Race &race : result.races.rawRaces()) {
            if (!pairPredicted(race.prior_pc, race.later_pc))
                ++hb.false_negatives;
        }
        score.per_detector["hb"] = hb;
    }

    for (const auto &[store_pc, load_pc] : pairs) {
        ++score.fused.considered;
        if (result.report.matchesPairAny(store_pc, load_pc) ||
            result.races.isRacyPair(store_pc, load_pc)) {
            ++score.fused.true_positives;
        } else {
            ++score.fused.false_positives;
        }
    }
    // Fused misses: ground-truth items (any lens) nothing predicted.
    for (const AnalysisFinding &finding : result.report.findings()) {
        bool matched = false;
        for (const auto &[store_pc, load_pc] : pairs) {
            if (finding.coversPair(store_pc, load_pc)) {
                matched = true;
                break;
            }
        }
        if (!matched)
            ++score.fused.false_negatives;
    }
    for (const Race &race : result.races.rawRaces()) {
        if (!pairPredicted(race.prior_pc, race.later_pc))
            ++score.fused.false_negatives;
    }
    return score;
}

} // namespace act
