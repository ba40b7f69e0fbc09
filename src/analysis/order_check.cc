#include "analysis/order_check.hh"

#include <cstdio>
#include <map>

namespace act
{

namespace
{

/** Last writer of one address. */
struct Writer
{
    bool valid = false;
    ThreadId tid = 0;
    Pc pc = kInvalidPc;
    SeqNum seq = 0;
};

/** Walk @p trace calling @p raw(writer, load_event) per RAW pair. */
template <typename Fn>
void
forEachRaw(const Trace &trace, Fn &&raw)
{
    std::unordered_map<Addr, Writer> writers;
    for (const TraceEvent &event : trace.events()) {
        if (!event.isMemory() || event.stack)
            continue;
        if (event.kind == EventKind::kStore) {
            writers[event.addr] =
                {true, event.tid, event.pc, event.seq};
            continue;
        }
        const auto it = writers.find(event.addr);
        if (it != writers.end() && it->second.valid)
            raw(it->second, event);
    }
}

} // namespace

void
OrderInvariants::addPassingTrace(const Trace &trace)
{
    forEachRaw(trace, [this](const Writer &writer,
                             const TraceEvent &load) {
        if (writer.tid != load.tid)
            writers_[load.pc].insert(writer.pc);
    });
}

bool
OrderInvariants::allows(Pc store_pc, Pc load_pc) const
{
    const auto it = writers_.find(load_pc);
    return it != writers_.end() && it->second.count(store_pc) != 0;
}

bool
OrderInvariants::knowsLoad(Pc load_pc) const
{
    return writers_.count(load_pc) != 0;
}

AnalysisReport
checkOrderViolations(const Trace &trace,
                     const OrderInvariants &invariants)
{
    AnalysisReport report;

    // Intra-thread dependences are ordered by program order and never
    // checked, which is what keeps single-threaded (sequential-bug)
    // traces clean by construction.
    forEachRaw(trace, [&](const Writer &writer, const TraceEvent &load) {
        if (writer.tid == load.tid)
            return;
        if (invariants.allows(writer.pc, load.pc))
            return;
        AnalysisFinding finding;
        finding.detector = DetectorKind::kOrder;
        finding.code = invariants.knowsLoad(load.pc)
                           ? "untrained-writer"
                           : "untrained-communication";
        finding.pcs = {writer.pc, load.pc};
        finding.witness_seqs = {writer.seq, load.seq};
        finding.witness_tids = {writer.tid, load.tid};
        finding.addr = load.addr;
        char buf[112];
        std::snprintf(buf, sizeof(buf),
                      "load reads 0x%llx from a remote store no "
                      "passing run ever supplied",
                      static_cast<unsigned long long>(load.addr));
        finding.message = buf;
        report.add(std::move(finding));
    });
    return report;
}

} // namespace act
