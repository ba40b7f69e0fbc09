/**
 * @file
 * Per-thread weight persistence — the "weights stored in the program
 * binary" of Sections III-B and IV-C.
 *
 * After offline training (and again at every thread exit, when the
 * thread library reads the registers back with ldwt), each thread's
 * link weights are recorded against its deterministic thread id. At
 * thread creation the library checks for stored weights with chkwt and
 * initialises the AM with stwt; a thread with no stored weights gets
 * default weights, which mispredict badly and push the module straight
 * into online-training mode.
 */

#ifndef ACT_ACT_WEIGHT_STORE_HH
#define ACT_ACT_WEIGHT_STORE_HH

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "nn/network.hh"

namespace act
{

/** The binary-resident weight table. */
class WeightStore
{
  public:
    WeightStore() = default;

    /** @param topology Topology every stored weight set must match. */
    explicit WeightStore(Topology topology) : topology_(topology) {}

    const Topology &topology() const { return topology_; }

    /** chkwt: does thread @p tid have stored weights? */
    bool has(ThreadId tid) const { return weights_.count(tid) != 0; }

    /** Weights for @p tid, or nullopt (thread library falls back). */
    std::optional<std::vector<double>> get(ThreadId tid) const;

    /** Record @p weights for @p tid ("patching the binary"). */
    void set(ThreadId tid, std::vector<double> weights);

    /** Store the same weights for threads [0, count). */
    void setAll(std::uint32_t count, const std::vector<double> &weights);

    /** Number of threads with stored weights. */
    std::size_t size() const { return weights_.size(); }

    /** Thread ids with stored weights, sorted (for iteration/audits). */
    std::vector<ThreadId> tids() const;

    /** Number of weight registers per thread for the topology. */
    std::size_t weightCount() const;

    /**
     * Serialise to a file: a header of three u64 (inputs, hidden,
     * entry count), then per thread in tid order a u64 id followed by
     * weightCount() doubles. Returns false on I/O failure.
     */
    bool save(const std::string &path) const;

    /**
     * Load from a file written by save(). Returns false on I/O failure,
     * on an invalid topology header, and on an entry whose id does not
     * fit a ThreadId or repeats an earlier entry's. All or nothing: a
     * failed load leaves the topology and every entry unchanged.
     */
    bool load(const std::string &path);

  private:
    Topology topology_{6, 10};
    std::unordered_map<ThreadId, std::vector<double>> weights_;
};

} // namespace act

#endif // ACT_ACT_WEIGHT_STORE_HH
