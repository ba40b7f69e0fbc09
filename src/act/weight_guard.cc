#include "act/weight_guard.hh"

#include <cstring>

#include "act/weight_store.hh"

namespace act
{

std::uint64_t
weightChecksum(const std::vector<double> &weights)
{
    // FNV-1a over the stored bit patterns: any single flipped bit —
    // including ones that keep the value finite and in range, which
    // validateWeights cannot see — changes the digest.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double w : weights) {
        std::uint64_t raw = 0;
        std::memcpy(&raw, &w, sizeof(raw));
        for (std::size_t byte = 0; byte < sizeof(raw); ++byte) {
            h ^= (raw >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

WeightGuard
WeightGuard::build(const WeightStore &store)
{
    WeightGuard guard;
    for (const ThreadId tid : store.tids()) {
        std::vector<double> weights = *store.get(tid);
        const std::uint64_t checksum = weightChecksum(weights);
        guard.guards_.emplace(tid, Guard{checksum, std::move(weights)});
    }
    return guard;
}

bool
WeightGuard::inspect(ThreadId tid, std::vector<double> &weights) const
{
    const auto it = guards_.find(tid);
    if (it == guards_.end() ||
        weightChecksum(weights) == it->second.checksum) {
        return false;
    }
    // A stored bit flipped since the guard was built: restore the
    // shadow copy.
    weights = it->second.shadow;
    return true;
}

} // namespace act
