#include "analysis/lockset.hh"

#include <algorithm>
#include <cstdio>

namespace act
{

namespace
{

/** Insert @p value into sorted @p values (no-op when present). */
void
sortedInsert(std::vector<Addr> &values, Addr value)
{
    const auto it =
        std::lower_bound(values.begin(), values.end(), value);
    if (it == values.end() || *it != value)
        values.insert(it, value);
}

/** Remove @p value from sorted @p values (no-op when absent). */
void
sortedErase(std::vector<Addr> &values, Addr value)
{
    const auto it =
        std::lower_bound(values.begin(), values.end(), value);
    if (it != values.end() && *it == value)
        values.erase(it);
}

} // namespace

const char *
locksetStateName(LocksetState state)
{
    switch (state) {
      case LocksetState::kVirgin: return "virgin";
      case LocksetState::kExclusive: return "exclusive";
      case LocksetState::kShared: return "shared";
      case LocksetState::kSharedModified: return "shared-modified";
    }
    return "unknown";
}

void
LocksetDetector::refine(VarState &var, const std::vector<Addr> &held)
{
    if (!var.lockset_started) {
        var.lockset = held;
        var.lockset_started = true;
        return;
    }
    std::vector<Addr> intersection;
    std::set_intersection(var.lockset.begin(), var.lockset.end(),
                          held.begin(), held.end(),
                          std::back_inserter(intersection));
    var.lockset = std::move(intersection);
}

void
LocksetDetector::reportViolation(const VarState &var,
                                 const TraceEvent &event)
{
    const bool is_store = event.kind == EventKind::kStore;
    AnalysisFinding finding;
    finding.detector = DetectorKind::kLockset;
    finding.code =
        is_store ? "unlocked-shared-write" : "unlocked-shared-read";
    finding.addr = event.addr;
    if (var.last_write_pc != kInvalidPc &&
        !(var.last_write_pc == event.pc &&
          var.last_write_tid == event.tid)) {
        finding.pcs = {var.last_write_pc, event.pc};
        finding.witness_seqs = {var.last_write_seq, event.seq};
        finding.witness_tids = {var.last_write_tid, event.tid};
    } else {
        finding.pcs = {event.pc};
        finding.witness_seqs = {event.seq};
        finding.witness_tids = {event.tid};
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%s of shared-modified 0x%llx with empty lockset",
                  is_store ? "write" : "read",
                  static_cast<unsigned long long>(event.addr));
    finding.message = buf;
    report_.add(std::move(finding));
}

void
LocksetDetector::observe(const TraceEvent &event)
{
    switch (event.kind) {
      case EventKind::kLock:
        sortedInsert(held_[event.tid], event.addr);
        return;
      case EventKind::kUnlock:
        sortedErase(held_[event.tid], event.addr);
        return;
      case EventKind::kLoad:
      case EventKind::kStore:
        break;
      default:
        return;
    }
    if (event.stack)
        return; // Thread-private by construction.

    VarState &var = vars_[event.addr];
    const bool is_store = event.kind == EventKind::kStore;
    static const std::vector<Addr> kNoLocks;
    const auto held_it = held_.find(event.tid);
    const std::vector<Addr> &held =
        held_it == held_.end() ? kNoLocks : held_it->second;

    switch (var.state) {
      case LocksetState::kVirgin:
        var.state = LocksetState::kExclusive;
        var.owner = event.tid;
        break;
      case LocksetState::kExclusive:
        if (event.tid != var.owner) {
            // First remote access: refinement starts here, forgiving
            // the owner's unlocked initialisation phase (Eraser).
            var.state = is_store ? LocksetState::kSharedModified
                                 : LocksetState::kShared;
            refine(var, held);
        }
        break;
      case LocksetState::kShared:
        refine(var, held);
        if (is_store)
            var.state = LocksetState::kSharedModified;
        break;
      case LocksetState::kSharedModified:
        refine(var, held);
        break;
    }

    if (var.state == LocksetState::kSharedModified &&
        var.lockset.empty()) {
        reportViolation(var, event);
    }

    if (is_store) {
        var.last_write_pc = event.pc;
        var.last_write_tid = event.tid;
        var.last_write_seq = event.seq;
    }
}

LocksetState
LocksetDetector::state(Addr addr) const
{
    const auto it = vars_.find(addr);
    return it == vars_.end() ? LocksetState::kVirgin : it->second.state;
}

std::vector<Addr>
LocksetDetector::candidateLocks(Addr addr) const
{
    const auto it = vars_.find(addr);
    return it == vars_.end() ? std::vector<Addr>{} : it->second.lockset;
}

std::vector<Addr>
LocksetDetector::heldLocks(ThreadId tid) const
{
    const auto it = held_.find(tid);
    return it == held_.end() ? std::vector<Addr>{} : it->second;
}

AnalysisReport
detectLocksetRaces(const Trace &trace)
{
    LocksetDetector detector;
    for (const TraceEvent &event : trace.events())
        detector.observe(event);
    return detector.takeReport();
}

} // namespace act
