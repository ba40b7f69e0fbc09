/**
 * @file
 * Shared currency of the offline concurrency detectors.
 *
 * Every detector of the analysis pipeline (lockset, atomicity,
 * order-invariant) reports through AnalysisFinding / AnalysisReport: a
 * finding names its detector, a stable rule code, the static program
 * points that identify the defect (up to three PCs) and the first
 * dynamic witness (seq/tid per PC). Dynamic re-occurrences of the same
 * static defect bump a count instead of producing duplicates, keyed by
 * detector x code x PC tuple, so a report is a set of static defects no
 * matter how long the trace is (DESIGN section 13).
 */

#ifndef ACT_ANALYSIS_DETECTOR_HH
#define ACT_ANALYSIS_DETECTOR_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hashing.hh"
#include "common/types.hh"

namespace act
{

/** The detectors of the analysis pipeline. */
enum class DetectorKind : std::uint8_t
{
    kLockset,   //!< Eraser-style C(v) lockset race detector.
    kAtomicity, //!< AVIO-style unserializable-interleaving detector.
    kOrder      //!< Mined communication-invariant checker.
};

inline constexpr std::size_t kDetectorCount = 3;

const char *detectorName(DetectorKind kind);

/** One static defect a detector found, with its first dynamic witness. */
struct AnalysisFinding
{
    DetectorKind detector = DetectorKind::kLockset;

    /** Stable machine-matchable rule code, e.g. "empty-lockset". */
    std::string code;

    /**
     * Static program points, earliest role first. Two entries for pair
     * defects (prior access, later access), three for atomicity triples
     * (preceding local, remote, current local). Lock-order cycles list
     * the acquire sites around the cycle.
     */
    std::vector<Pc> pcs;

    /** Data/lock address of the first witness. */
    Addr addr = 0;

    /** First dynamic witness: one seq/tid per entry of pcs. */
    std::vector<SeqNum> witness_seqs;
    std::vector<ThreadId> witness_tids;

    /** Dynamic occurrences of this static defect. */
    std::uint64_t count = 0;

    /** Human-readable explanation with the offending values. */
    std::string message;

    /** Stable dedup/ranking key: detector x code x PC tuple. */
    std::uint64_t
    key() const
    {
        std::uint64_t k = hash3(static_cast<std::uint64_t>(detector),
                                pcs.size(), 0x4f1d);
        for (const char c : code)
            k = hashCombine(k, static_cast<std::uint64_t>(c));
        for (const Pc pc : pcs)
            k = hashCombine(k, pc);
        return k;
    }

    /** Does the PC set of this finding cover both ends of a pair? */
    bool
    coversPair(Pc store_pc, Pc load_pc) const
    {
        const auto has = [this](Pc pc) {
            return std::find(pcs.begin(), pcs.end(), pc) != pcs.end();
        };
        return has(store_pc) && has(load_pc);
    }

    std::string toString() const;
};

/**
 * Deduplicated, rankable set of detector findings.
 *
 * add() folds dynamic re-occurrences into the existing finding's count;
 * merge() folds whole reports (each detector fills its own report,
 * which the pipeline merges in fixed detector order). ranked() orders
 * by dynamic count (desc), then detector, code and PC tuple, so the
 * rendering is a pure function of the finding set.
 */
class AnalysisReport
{
  public:
    void add(AnalysisFinding finding);
    void merge(const AnalysisReport &other);

    /** All findings, in first-occurrence order. */
    const std::vector<AnalysisFinding> &findings() const
    {
        return findings_;
    }

    bool empty() const { return findings_.empty(); }
    std::size_t size() const { return findings_.size(); }

    /** Findings sorted: count desc, detector, code, PCs (stable). */
    std::vector<AnalysisFinding> ranked() const;

    /** Findings of one detector. */
    std::size_t countFor(DetectorKind detector) const;

    /**
     * Did @p detector report a finding whose PC set covers both
     * @p store_pc and @p load_pc? The lockset pair may be recorded in
     * either orientation and atomicity triples carry three PCs, so the
     * match is set inclusion, not an ordered-pair comparison.
     */
    bool matchesPair(DetectorKind detector, Pc store_pc,
                     Pc load_pc) const;

    /** Any-detector variant of matchesPair(). */
    bool matchesPairAny(Pc store_pc, Pc load_pc) const;

    /** One finding per line, ranked; "" when empty. */
    std::string toText() const;

  private:
    std::vector<AnalysisFinding> findings_;
    std::unordered_map<std::uint64_t, std::size_t> index_; //!< key -> slot.
};

} // namespace act

#endif // ACT_ANALYSIS_DETECTOR_HH
