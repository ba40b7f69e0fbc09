/**
 * @file
 * The sigmoid lookup table inside each hardware neuron (Figure 6(b)).
 */

#ifndef ACT_HWNN_SIGMOID_TABLE_HH
#define ACT_HWNN_SIGMOID_TABLE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"

namespace act
{

/**
 * Fixed-point sigmoid approximation via a symmetric lookup table.
 *
 * The table stores sigmoid samples for inputs in [0, kInputRange];
 * negative inputs use sigmoid(-x) = 1 - sigmoid(x). Inputs beyond the
 * range saturate to 0/1, matching how a bounded hardware table behaves.
 *
 * The negative branch is precomputed: a second table holds
 * 1 - sigmoid(x) for every entry, so lookup() is a pure select on the
 * sign bit with no data-dependent branch — the hardware equivalent of
 * feeding the accumulator's sign into the table's bank-select line.
 */
class SigmoidTable
{
  public:
    /** Largest input magnitude the table resolves. */
    static constexpr double kInputRange = 8.0;

    /** log2 of kInputRange in raw Q15.16 units. */
    static constexpr int kIndexShift = 19;
    static_assert(HwFixed::kScale * kInputRange ==
                      static_cast<double>(1LL << kIndexShift),
                  "kIndexShift must be log2(HwFixed::kScale * kInputRange)");

    /** @param entries Table resolution (hardware default 256). */
    explicit SigmoidTable(std::size_t entries = 256);

    /**
     * Look up sigmoid(x) with linear index truncation: the index is
     * floor(|x| / kInputRange * (entries - 1)), capped at the last
     * entry. In raw units that is (|raw| * (entries - 1)) >> 19, which
     * 64-bit integers hold exactly (|raw| <= 2^31).
     */
    HwFixed
    lookup(HwFixed x) const
    {
        const std::int64_t raw = x.raw();
        const std::size_t negative = raw < 0;
        const auto mag = static_cast<std::uint64_t>(raw < 0 ? -raw : raw);
        const std::uint64_t last = tables_[0].size() - 1;
        const std::uint64_t index =
            std::min((mag * last) >> kIndexShift, last);
        return tables_[negative][index];
    }

    std::size_t entries() const { return tables_[0].size(); }

    /** Worst-case absolute error vs. the exact sigmoid over the range. */
    double maxAbsError() const;

  private:
    /** [0]: sigmoid(x) samples; [1]: 1 - sigmoid(x) complements. */
    std::array<std::vector<HwFixed>, 2> tables_;
};

} // namespace act

#endif // ACT_HWNN_SIGMOID_TABLE_HH
