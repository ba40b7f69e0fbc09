#include "faults/fault_injector.hh"

#include <cstring>

#include "act/weight_store.hh"
#include "common/hashing.hh"
#include "telemetry/metrics.hh"
#include "telemetry/spans.hh"
#include "trace/trace.hh"

namespace act
{

namespace
{

/** Distinct salt per site so rates at different sites never correlate. */
constexpr std::uint64_t
siteSalt(FaultSite site)
{
    return 0xfa017u + 0x9e37u * static_cast<std::uint64_t>(site);
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::kTraceBitflip: return "trace-bitflip";
      case FaultSite::kTraceDrop: return "trace-drop";
      case FaultSite::kTraceDup: return "trace-dup";
      case FaultSite::kTraceTruncate: return "trace-truncate";
      case FaultSite::kWeightBitflip: return "weight-bitflip";
      case FaultSite::kWriterDrop: return "writer-drop";
      case FaultSite::kWriterStale: return "writer-stale";
      case FaultSite::kInputDrop: return "input-drop";
      case FaultSite::kDebugDrop: return "debug-drop";
    }
    return "?";
}

bool
FaultInjector::decide(FaultSite site, double rate, std::uint64_t a,
                      std::uint64_t b) const
{
    if (rate <= 0.0)
        return false;
    return hashToUnit(hash3(plan_.seed ^ siteSalt(site), a, b)) < rate;
}

void
FaultInjector::record(FaultSite site, std::uint64_t stream,
                      std::uint64_t index, std::uint64_t detail)
{
    ++counts_[static_cast<std::size_t>(site)];
    log_.push_back(InjectionRecord{site, stream, index, detail});
    // Injection decisions are pure hash functions of (plan, site,
    // stream, index), so the audit counter is kStable.
    static const telemetry::Counter injections =
        telemetry::MetricsRegistry::global().counter("faults.injections");
    injections.inc();
    telemetry::SpanTracer::global().instant(
        "fault_injection", "faults",
        {telemetry::arg("site", faultSiteName(site)),
         telemetry::arg("stream", stream),
         telemetry::arg("index", index)});
}

std::size_t
FaultInjector::corruptTrace(Trace &trace, std::uint64_t stream)
{
    const std::size_t before = log_.size();
    const std::vector<TraceEvent> &source = trace.events();

    std::vector<TraceEvent> out;
    out.reserve(source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
        if (decide(FaultSite::kTraceDrop, plan_.trace_drop_rate, stream,
                   i)) {
            record(FaultSite::kTraceDrop, stream, i, 0);
            continue;
        }
        TraceEvent event = source[i];
        if (decide(FaultSite::kTraceBitflip, plan_.trace_bitflip_rate,
                   stream, i)) {
            // Flip one bit of pc or addr. Bits above 47 never carry
            // address information in the workload models, so stay in
            // the low 48 to perturb values that are actually consumed.
            const std::uint64_t h =
                hash3(plan_.seed ^ 0xb17f11bu, stream, i);
            const std::uint64_t bit = (h >> 1) % 48;
            if ((h & 1) != 0)
                event.pc ^= 1ULL << bit;
            else
                event.addr ^= 1ULL << bit;
            record(FaultSite::kTraceBitflip, stream, i, bit);
        }
        out.push_back(event);
        if (decide(FaultSite::kTraceDup, plan_.trace_dup_rate, stream,
                   i)) {
            record(FaultSite::kTraceDup, stream, i, 0);
            out.push_back(event);
        }
    }
    if (plan_.trace_truncate_fraction > 0.0 && !out.empty()) {
        const auto keep = static_cast<std::size_t>(
            static_cast<double>(out.size()) *
            (1.0 - plan_.trace_truncate_fraction));
        if (keep < out.size()) {
            record(FaultSite::kTraceTruncate, stream, keep,
                   out.size() - keep);
            out.resize(keep);
        }
    }

    // Rebuild through appendBlock so the summary counters (instruction
    // and event tallies) match the corrupted stream, exactly as if the
    // damaged artefact had been deserialised.
    trace.clear();
    trace.appendBlock(out);
    return log_.size() - before;
}

std::size_t
FaultInjector::corruptWeightStore(WeightStore &store, std::uint64_t stream)
{
    const std::size_t before = log_.size();
    for (const ThreadId tid : store.tids()) {
        std::vector<double> weights = *store.get(tid);
        // The decision hashes are keyed by hashCombine(stream, tid), so
        // every thread's set takes its own replayable damage pattern.
        const std::uint64_t key = hashCombine(stream, tid);
        bool touched = false;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (!decide(FaultSite::kWeightBitflip,
                        plan_.weight_bitflip_rate, key, i)) {
                continue;
            }
            // Flip one bit of the stored IEEE-754 representation: a
            // mantissa flip is a small perturbation, an exponent or
            // sign flip a wild value, an all-ones exponent a NaN/Inf —
            // the full spectrum the quarantine layer must absorb.
            const std::uint64_t h = hash3(plan_.seed ^ 0x3efb17u, key, i);
            const std::uint64_t bit = h % 64;
            std::uint64_t raw = 0;
            std::memcpy(&raw, &weights[i], sizeof(raw));
            raw ^= 1ULL << bit;
            std::memcpy(&weights[i], &raw, sizeof(raw));
            record(FaultSite::kWeightBitflip, tid, i, bit);
            touched = true;
        }
        if (plan_.weight_bit_rate > 0.0) {
            // FIT-style damage: every stored bit is its own coin, so
            // one register can take several flips in one experiment.
            for (std::size_t i = 0; i < weights.size(); ++i) {
                std::uint64_t raw = 0;
                std::memcpy(&raw, &weights[i], sizeof(raw));
                const std::uint64_t original = raw;
                for (std::uint64_t bit = 0; bit < 64; ++bit) {
                    if (!decide(FaultSite::kWeightBitflip,
                                plan_.weight_bit_rate,
                                hashCombine(key, 0x5b17u),
                                (static_cast<std::uint64_t>(i) << 6) |
                                    bit)) {
                        continue;
                    }
                    raw ^= 1ULL << bit;
                    record(FaultSite::kWeightBitflip, tid, i, bit);
                    touched = true;
                }
                if (raw != original)
                    std::memcpy(&weights[i], &raw, sizeof(raw));
            }
        }
        if (touched)
            store.set(tid, std::move(weights));
    }
    return log_.size() - before;
}

WriterFaultAction
FaultInjector::onWriterTransfer()
{
    const std::uint64_t call = writer_calls_++;
    if (decide(FaultSite::kWriterDrop, plan_.writer_drop_rate, call, 0)) {
        record(FaultSite::kWriterDrop, 0, call, 0);
        return WriterFaultAction::kDrop;
    }
    if (decide(FaultSite::kWriterStale, plan_.writer_stale_rate, call,
               1)) {
        record(FaultSite::kWriterStale, 0, call, 0);
        return WriterFaultAction::kStale;
    }
    return WriterFaultAction::kNone;
}

bool
FaultInjector::dropInputDependence()
{
    const std::uint64_t call = input_calls_++;
    if (decide(FaultSite::kInputDrop, plan_.input_drop_rate, call, 2)) {
        record(FaultSite::kInputDrop, 0, call, 0);
        return true;
    }
    return false;
}

bool
FaultInjector::dropDebugLog()
{
    const std::uint64_t call = debug_calls_++;
    if (decide(FaultSite::kDebugDrop, plan_.debug_drop_rate, call, 3)) {
        record(FaultSite::kDebugDrop, 0, call, 0);
        return true;
    }
    return false;
}

std::uint64_t
FaultInjector::totalInjections() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t count : counts_)
        total += count;
    return total;
}

std::string
FaultInjector::formatLog(std::size_t max_records) const
{
    std::string out;
    for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
        if (counts_[s] == 0)
            continue;
        if (!out.empty())
            out += ", ";
        out += faultSiteName(static_cast<FaultSite>(s));
        out += ": ";
        out += std::to_string(counts_[s]);
    }
    if (out.empty())
        return "no injections";
    std::size_t shown = 0;
    for (const InjectionRecord &rec : log_) {
        if (shown++ >= max_records)
            break;
        out += "\n  ";
        out += faultSiteName(rec.site);
        out += " stream=" + std::to_string(rec.stream) +
               " index=" + std::to_string(rec.index) +
               " detail=" + std::to_string(rec.detail);
    }
    if (log_.size() > max_records) {
        out += "\n  ... " + std::to_string(log_.size() - max_records) +
               " more";
    }
    return out;
}

} // namespace act
