#include "analysis/atomicity.hh"

#include <cstdio>

namespace act
{

namespace
{

/** Is (p, r, c) one of the four unserializable kind patterns? */
bool
unserializable(bool p_store, bool r_store, bool c_store)
{
    if (r_store) {
        // R-W-R, W-W-R and R-W-W are unserializable; W-W-W is not
        // (the second local write masks the remote one either way).
        return !(p_store && c_store);
    }
    // Remote read: only W-R-W (sees a half-done update).
    return p_store && c_store;
}

const char *
patternName(bool p_store, bool r_store, bool c_store)
{
    const auto letter = [](bool store) { return store ? 'W' : 'R'; };
    static thread_local char buf[6];
    buf[0] = letter(p_store);
    buf[1] = '-';
    buf[2] = letter(r_store);
    buf[3] = '-';
    buf[4] = letter(c_store);
    buf[5] = '\0';
    return buf;
}

} // namespace

std::uint64_t
AtomicityDetector::tripleKey(Pc p_pc, Pc r_pc, Pc c_pc, bool p_store,
                             bool r_store, bool c_store)
{
    const std::uint64_t pattern =
        (p_store ? 4U : 0U) | (r_store ? 2U : 0U) | (c_store ? 1U : 0U);
    return hashCombine(hash3(p_pc, r_pc, c_pc), pattern);
}

void
AtomicityDetector::observe(const TraceEvent &event)
{
    if (!event.isMemory() || event.stack)
        return;
    const bool is_store = event.kind == EventKind::kStore;
    auto &windows = state_[event.addr];

    // Close the thread's own window: classify every remote access that
    // interleaved since its previous access to this address.
    LocalWindow &window = windows[event.tid];
    if (window.valid) {
        for (const RemoteAccess &remote : window.remotes) {
            if (!unserializable(window.is_store, remote.is_store,
                                is_store)) {
                continue;
            }
            const std::uint64_t key =
                tripleKey(window.pc, remote.pc, event.pc,
                          window.is_store, remote.is_store, is_store);
            triples_.insert(key);
            if (baseline_ != nullptr && baseline_->contains(key))
                continue; // Seen in passing runs: benign by invariant.
            AnalysisFinding finding;
            finding.detector = DetectorKind::kAtomicity;
            finding.code = patternName(window.is_store,
                                       remote.is_store, is_store);
            finding.pcs = {window.pc, remote.pc, event.pc};
            finding.witness_seqs = {window.seq, remote.seq, event.seq};
            finding.witness_tids = {event.tid, remote.tid, event.tid};
            finding.addr = event.addr;
            char buf[112];
            std::snprintf(
                buf, sizeof(buf),
                "unserializable %s interleaving on 0x%llx (remote t%u "
                "between two t%u accesses)",
                finding.code.c_str(),
                static_cast<unsigned long long>(event.addr), remote.tid,
                event.tid);
            finding.message = buf;
            report_.add(std::move(finding));
        }
    }
    window.valid = true;
    window.pc = event.pc;
    window.is_store = is_store;
    window.seq = event.seq;
    window.remotes.clear();

    // This access is a remote interleaver for every other thread's open
    // window on the address. Dedup statically per window so a tight
    // loop cannot grow the vector.
    for (auto &[tid, other] : windows) {
        if (tid == event.tid || !other.valid)
            continue;
        bool known = false;
        for (const RemoteAccess &remote : other.remotes) {
            if (remote.pc == event.pc && remote.is_store == is_store) {
                known = true;
                break;
            }
        }
        if (!known) {
            other.remotes.push_back(
                {event.pc, is_store, event.seq, event.tid});
        }
    }
}

void
AtomicityBaseline::addPassingTrace(const Trace &trace)
{
    AtomicityDetector detector;
    for (const TraceEvent &event : trace.events())
        detector.observe(event);
    const auto &keys = detector.tripleKeys();
    triples_.insert(keys.begin(), keys.end());
}

AnalysisReport
detectAtomicityViolations(const Trace &trace,
                          const AtomicityBaseline *baseline)
{
    AtomicityDetector detector(baseline);
    for (const TraceEvent &event : trace.events())
        detector.observe(event);
    return detector.takeReport();
}

} // namespace act
