#include "analysis/detector.hh"

#include <cstdio>
#include <sstream>

namespace act
{

const char *
detectorName(DetectorKind kind)
{
    switch (kind) {
      case DetectorKind::kLockset: return "lockset";
      case DetectorKind::kAtomicity: return "atomicity";
      case DetectorKind::kOrder: return "order";
    }
    return "unknown";
}

std::string
AnalysisFinding::toString() const
{
    std::ostringstream out;
    out << detectorName(detector) << "/" << code << " ";
    for (std::size_t i = 0; i < pcs.size(); ++i) {
        if (i != 0)
            out << " -> ";
        char buf[48];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(pcs[i]));
        out << buf;
        if (i < witness_tids.size())
            out << " (t" << witness_tids[i] << ")";
    }
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), " on 0x%llx (%llu instance%s)",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(count),
                      count == 1 ? "" : "s");
        out << buf;
    }
    if (!message.empty())
        out << ": " << message;
    return out.str();
}

void
AnalysisReport::add(AnalysisFinding finding)
{
    if (finding.count == 0)
        finding.count = 1;
    const std::uint64_t key = finding.key();
    const auto it = index_.find(key);
    if (it != index_.end()) {
        findings_[it->second].count += finding.count;
        return;
    }
    index_.emplace(key, findings_.size());
    findings_.push_back(std::move(finding));
}

void
AnalysisReport::merge(const AnalysisReport &other)
{
    for (const AnalysisFinding &finding : other.findings_)
        add(finding);
    events_analyzed += other.events_analyzed;
}

std::vector<AnalysisFinding>
AnalysisReport::ranked() const
{
    std::vector<AnalysisFinding> sorted = findings_;
    std::sort(sorted.begin(), sorted.end(),
              [](const AnalysisFinding &a, const AnalysisFinding &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.detector != b.detector)
                      return a.detector < b.detector;
                  if (a.code != b.code)
                      return a.code < b.code;
                  return a.pcs < b.pcs;
              });
    return sorted;
}

std::size_t
AnalysisReport::countFor(DetectorKind detector) const
{
    std::size_t n = 0;
    for (const AnalysisFinding &finding : findings_) {
        if (finding.detector == detector)
            ++n;
    }
    return n;
}

bool
AnalysisReport::matchesPair(DetectorKind detector, Pc store_pc,
                            Pc load_pc) const
{
    for (const AnalysisFinding &finding : findings_) {
        if (finding.detector == detector &&
            finding.coversPair(store_pc, load_pc)) {
            return true;
        }
    }
    return false;
}

bool
AnalysisReport::matchesPairAny(Pc store_pc, Pc load_pc) const
{
    for (const AnalysisFinding &finding : findings_) {
        if (finding.coversPair(store_pc, load_pc))
            return true;
    }
    return false;
}

std::string
AnalysisReport::toText() const
{
    std::string out;
    for (const AnalysisFinding &finding : ranked()) {
        out += finding.toString();
        out += '\n';
    }
    return out;
}

} // namespace act
