#include "analysis/config_check.hh"

#include "act/weight_store.hh"

namespace act
{

std::vector<Finding>
validateWeightStore(const WeightStore &store)
{
    std::vector<Finding> findings;
    const Topology &topology = store.topology();
    if (!topology.valid()) {
        findings.push_back(makeFinding(
            "weights", "topology", Severity::kError,
            "store topology " + std::to_string(topology.inputs) + "x" +
                std::to_string(topology.hidden) + " outside [1, " +
                std::to_string(kMaxFanIn) + "]^2"));
    }
    for (const ThreadId tid : store.tids()) {
        const auto weights = store.get(tid);
        if (!weights)
            continue;
        const auto set_findings = validateWeights(
            topology, *weights, "tid " + std::to_string(tid));
        findings.insert(findings.end(), set_findings.begin(),
                        set_findings.end());
    }
    return findings;
}

} // namespace act
