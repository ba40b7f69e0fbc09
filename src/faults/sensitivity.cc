#include "faults/sensitivity.hh"

#include <cmath>
#include <cstring>

#include "common/hashing.hh"

namespace act
{

WeightSensitivity
probeWeightSensitivity(ThreadId tid, std::span<const double> weights,
                       std::size_t probes, std::uint64_t seed,
                       double weight_limit)
{
    WeightSensitivity out;
    out.tid = tid;
    if (weights.empty())
        return out;
    out.probes = probes;
    for (std::size_t p = 0; p < probes; ++p) {
        // Same corruption model as corruptWeightStore: one flipped bit
        // of the stored IEEE-754 representation.
        const std::uint64_t h = hash3(seed ^ 0x5e45u, tid, p);
        const std::size_t reg = (h >> 8) % weights.size();
        const std::uint64_t bit = h % 64;
        const double original = weights[reg];
        std::uint64_t raw = 0;
        std::memcpy(&raw, &original, sizeof(raw));
        raw ^= 1ULL << bit;
        double flipped = 0.0;
        std::memcpy(&flipped, &raw, sizeof(flipped));
        if (!std::isfinite(flipped) || std::fabs(flipped) > weight_limit) {
            ++out.detectable;
            continue;
        }
        ++out.silent;
        const double damage =
            std::fmin(std::fabs(flipped - original), weight_limit);
        out.silent_damage += damage;
    }
    return out;
}

} // namespace act
