/**
 * @file
 * Order-violation checker over mined communication invariants.
 *
 * Order violations (aget's early read of `bwritten`, pbzip2's
 * free-before-drain) are defined by which writer a read is *supposed*
 * to see, so the checker mines that expectation from passing runs: for
 * every load PC it records the set of inter-thread last-writer store
 * PCs observed across the passing traces (the load's first-access /
 * init-before-use invariant). A failing trace violates the invariant
 * when a load takes its value from a remote store PC outside the mined
 * set — in the bug catalog that is exactly the buggy dependence, and
 * single-threaded executions can never trip it (they form no
 * inter-thread dependences at all). Without passing runs there is no
 * expectation to violate, so the checker needs mined invariants.
 */

#ifndef ACT_ANALYSIS_ORDER_CHECK_HH
#define ACT_ANALYSIS_ORDER_CHECK_HH

#include <unordered_map>
#include <unordered_set>

#include "analysis/detector.hh"
#include "trace/trace.hh"

namespace act
{

/** Per-load-PC inter-thread last-writer sets mined from passing runs. */
class OrderInvariants
{
  public:
    /** Fold in the inter-thread RAW pairs of a passing trace. */
    void addPassingTrace(const Trace &trace);

    /** Was (store_pc -> load_pc) ever seen in a passing run? */
    bool allows(Pc store_pc, Pc load_pc) const;

    /** Did any passing run give @p load_pc an inter-thread writer? */
    bool knowsLoad(Pc load_pc) const;

    std::size_t size() const { return writers_.size(); }

  private:
    /** load PC -> set of permitted inter-thread store PCs. */
    std::unordered_map<Pc, std::unordered_set<Pc>> writers_;
};

/**
 * Flag every inter-thread RAW pair of @p trace that @p invariants
 * never saw in a passing run.
 */
AnalysisReport checkOrderViolations(const Trace &trace,
                                    const OrderInvariants &invariants);

} // namespace act

#endif // ACT_ANALYSIS_ORDER_CHECK_HH
