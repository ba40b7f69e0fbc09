#include "deps/encoder.hh"

#include <algorithm>
#include <cmath>

namespace act
{

std::vector<double>
DependenceEncoder::encodeSequence(const DependenceSequence &seq)
{
    std::vector<double> inputs;
    encodeSequenceInto(seq, inputs);
    return inputs;
}

void
DependenceEncoder::encodeSequenceInto(const DependenceSequence &seq,
                                      std::vector<double> &out)
{
    out.clear();
    out.reserve(seq.deps.size() * width());
    for (const auto &dep : seq.deps)
        encode(dep, out);
}

double
PairEncoder::localityFeature(const RawDependence &dep)
{
    // Low 12 word-address bits of the load PC: its position inside the
    // surrounding function / loop nest. The feature is deliberately
    // compressed to a tenth of the code range: locality refines the
    // decision near learned code but must not dominate the distance
    // feature, or the network could not extrapolate to functions it
    // never saw (the Figure 7(b) adaptivity property). Inter-thread
    // communication is a different phenomenon than local forwarding at
    // the same site; shifting it by a quarter band separates the two
    // populations without disturbing the distance feature.
    const std::uint64_t index = (dep.load_pc >> 2) & 0xFFF;
    const double base =
        codeFromUnit(static_cast<double>(index) / 4096.0) * 0.1;
    const double label_shift = dep.inter_thread ? 0.25 : 0.0;
    return std::clamp(base + label_shift, -kCodeRange, kCodeRange);
}

double
PairEncoder::distanceFeature(const RawDependence &dep)
{
    // Subtract in unsigned arithmetic, which wraps, then reinterpret
    // as two's complement: the signed difference wherever it fits,
    // without the overflow a signed subtraction of far-apart PCs has.
    const auto delta = static_cast<double>(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(dep.load_pc) -
        static_cast<std::uint64_t>(dep.store_pc)));
    const double magnitude =
        std::log2(1.0 + std::abs(delta)) / 16.0 * kCodeRange;
    const double signed_mag = std::copysign(magnitude, delta);
    return std::clamp(signed_mag, -kCodeRange, kCodeRange);
}

void
PairEncoder::encode(const RawDependence &dep, std::vector<double> &out)
{
    out.push_back(localityFeature(dep));
    out.push_back(distanceFeature(dep));
}

std::unique_ptr<DependenceEncoder>
PairEncoder::clone() const
{
    return std::make_unique<PairEncoder>(*this);
}

DictionaryEncoder::DictionaryEncoder(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

void
DictionaryEncoder::encode(const RawDependence &dep,
                          std::vector<double> &out)
{
    const auto [it, inserted] = codes_.try_emplace(dep.key(), codes_.size());
    const std::size_t slot = it->second % capacity_;
    out.push_back(codeFromUnit((static_cast<double>(slot) + 0.5) /
                               static_cast<double>(capacity_)));
}

std::unique_ptr<DependenceEncoder>
DictionaryEncoder::clone() const
{
    return std::make_unique<DictionaryEncoder>(*this);
}

void
HashEncoder::encode(const RawDependence &dep, std::vector<double> &out)
{
    out.push_back(
        codeFromUnit(hashToUnit(hashCombine(salt_, dep.key()))));
}

std::unique_ptr<DependenceEncoder>
HashEncoder::clone() const
{
    return std::make_unique<HashEncoder>(*this);
}

std::unique_ptr<DependenceEncoder>
makeDefaultEncoder()
{
    return std::make_unique<PairEncoder>();
}

} // namespace act
