/**
 * @file
 * Weight protection: an FNV-1a checksum and a shadow copy of every
 * stored weight set.
 *
 * A flipped stored bit that leaves the Q15.16 range is caught by
 * quarantine; one that stays in range is not, and the module would
 * classify with a silently perturbed network. The guard closes that
 * window. It is built from the *clean* store (after offline training,
 * before deployment faults), as a deployment would compute checksums
 * when it patches the binary, and is immutable afterwards. At thread
 * start ActModule::initThread (through ActConfig::protector) recomputes
 * the checksum of the set about to be loaded; on a mismatch it
 * restores the shadow copy in place, so the module keeps its trained
 * weights instead of quarantining into a from-scratch retrain. A set
 * of the Table III module (M = 10) holds at most 121 registers, so
 * shadowing every one is cheap.
 */

#ifndef ACT_ACT_WEIGHT_GUARD_HH
#define ACT_ACT_WEIGHT_GUARD_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace act
{

class WeightStore;

/**
 * Checksums and shadow copies of a store's sets. Build once; inspect
 * from any number of initThread calls (const, no mutable state, safe
 * to share across campaign threads).
 */
class WeightGuard
{
  public:
    /** Record a checksum and a shadow copy of every set in @p store. */
    static WeightGuard build(const WeightStore &store);

    /**
     * Checksum-verify @p weights against the record for @p tid and
     * restore the shadow copy on a mismatch. A tid with no record
     * passes through. @return true when a repair happened.
     */
    bool inspect(ThreadId tid, std::vector<double> &weights) const;

  private:
    struct Guard
    {
        std::uint64_t checksum = 0;
        std::vector<double> shadow;
    };

    std::unordered_map<ThreadId, Guard> guards_;
};

/** FNV-1a over the IEEE-754 bit patterns of @p weights. */
std::uint64_t weightChecksum(const std::vector<double> &weights);

} // namespace act

#endif // ACT_ACT_WEIGHT_GUARD_HH
