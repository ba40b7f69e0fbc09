/**
 * @file
 * Saturating signed fixed-point arithmetic for the hardware NN model.
 *
 * The digital neural network of Section IV-A (following Esmaeilzadeh et
 * al.'s NPU) computes with fixed-point weights and activations. The
 * class is a template over the number of fractional bits so the tests
 * can sweep precision; the hardware model instantiates FixedPoint<16>
 * (Q15.16 in 32-bit storage with 64-bit intermediates).
 */

#ifndef ACT_COMMON_FIXED_POINT_HH
#define ACT_COMMON_FIXED_POINT_HH

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace act
{

/**
 * Signed saturating fixed-point value with @p FracBits fractional bits.
 *
 * Stored in 32 bits; products use 64-bit intermediates and saturate on
 * overflow, mirroring a hardware multiply-add datapath.
 */
template <int FracBits>
class FixedPoint
{
    static_assert(FracBits > 0 && FracBits < 31,
                  "fractional bits must leave room for sign and integer");

  public:
    /** Raw storage type. */
    using Raw = std::int32_t;

    /** Number of fractional bits. */
    static constexpr int kFracBits = FracBits;

    /** Scaling factor 2^FracBits. */
    static constexpr double kScale = static_cast<double>(1LL << FracBits);

    constexpr FixedPoint() = default;

    /**
     * Convert from double, rounding half away from zero (llround's
     * rule) and saturating; NaN converts to 0.
     *
     * The rounding is inline rather than a libm call: truncate, then
     * step one unit away from zero when the dropped fraction's
     * magnitude is at least 0.5. The clamp keeps the truncating cast
     * inside Raw's range, and x - trunc(x) is exact in binary floating
     * point, so the comparison sees the true fraction. A fraction of
     * 0.5 or more means the clamped value is not an integer, so the
     * step cannot leave Raw's range either.
     */
    static constexpr FixedPoint
    fromDouble(double v)
    {
        const double scaled = v * kScale;
        if (std::isnan(scaled))
            return FixedPoint{};
        const double lo = static_cast<double>(
            std::numeric_limits<Raw>::min());
        const double hi = static_cast<double>(
            std::numeric_limits<Raw>::max());
        const double clamped = std::clamp(scaled, lo, hi);
        const auto whole = static_cast<Raw>(clamped);
        const double fraction = clamped - static_cast<double>(whole);
        FixedPoint out;
        out.raw_ = static_cast<Raw>(whole + (fraction >= 0.5) -
                                    (fraction <= -0.5));
        return out;
    }

    /** Wrap a raw fixed-point integer. */
    static constexpr FixedPoint
    fromRaw(Raw raw)
    {
        FixedPoint out;
        out.raw_ = raw;
        return out;
    }

    constexpr double toDouble() const
    {
        return static_cast<double>(raw_) / kScale;
    }

    constexpr Raw raw() const { return raw_; }

    constexpr FixedPoint
    operator+(FixedPoint other) const
    {
        return fromWide(static_cast<std::int64_t>(raw_) + other.raw_);
    }

    constexpr FixedPoint
    operator-(FixedPoint other) const
    {
        return fromWide(static_cast<std::int64_t>(raw_) - other.raw_);
    }

    /** Fixed-point multiply: (a*b) >> FracBits with saturation. */
    constexpr FixedPoint
    operator*(FixedPoint other) const
    {
        const std::int64_t wide =
            (static_cast<std::int64_t>(raw_) * other.raw_) >> FracBits;
        return fromWide(wide);
    }

    constexpr FixedPoint operator-() const { return fromWide(-std::int64_t{raw_}); }

    constexpr auto operator<=>(const FixedPoint &) const = default;

  private:
    static constexpr FixedPoint
    fromWide(std::int64_t wide)
    {
        const std::int64_t lo = std::numeric_limits<Raw>::min();
        const std::int64_t hi = std::numeric_limits<Raw>::max();
        FixedPoint out;
        out.raw_ = static_cast<Raw>(std::clamp(wide, lo, hi));
        return out;
    }

    Raw raw_ = 0;
};

/** The precision the hardware NN model uses (Q15.16). */
using HwFixed = FixedPoint<16>;

} // namespace act

#endif // ACT_COMMON_FIXED_POINT_HH
