/**
 * @file
 * The two small SRAM buffers inside an ACT Module (Figure 4(b)):
 * the Input Generator Buffer holding recent RAW dependences, and the
 * Debug Buffer logging recently flagged (predicted-invalid) sequences.
 *
 * Both are fixed-capacity rings over storage preallocated at
 * construction — the hardware they model is SRAM, and the simulator's
 * hot loop pushes one dependence per tracked load, so neither may
 * allocate after construction. The Debug Buffer copies each logged
 * sequence into its slot's existing storage, so a slot allocates only
 * on its first fill.
 */

#ifndef ACT_ACT_BUFFERS_HH
#define ACT_ACT_BUFFERS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "deps/raw_dependence.hh"

namespace act
{

/**
 * Table III buffer sizes. These are the single source of truth:
 * ActConfig's defaults are defined in terms of them, and
 * validateActConfig() warns when a configuration diverges.
 */
inline constexpr std::size_t kInputGeneratorBufferEntries = 50;
inline constexpr std::size_t kDebugBufferEntries = 60;

/**
 * FIFO of the most recent RAW dependences observed by this core
 * (Table III: 50 entries). The newest N entries form the neural
 * network's input sequence.
 */
class InputGeneratorBuffer
{
  public:
    explicit InputGeneratorBuffer(std::size_t capacity);

    /**
     * Insert a dependence; the oldest entry drops when full.
     *
     * @return true when the ring was saturated and the oldest entry was
     *         overwritten (the hardware loses that dependence).
     */
    bool
    push(const RawDependence &dep)
    {
        if (size_ == capacity_) {
            slots_[head_] = dep;
            head_ = next(head_);
            ++overwrites_;
            return true;
        }
        slots_[wrap(head_ + size_)] = dep;
        ++size_;
        return false;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /** Lifetime count of oldest-entry overwrites under saturation. */
    std::uint64_t overwrites() const { return overwrites_; }

    /**
     * The most recent @p n dependences, oldest first; nullopt when
     * fewer than @p n are buffered.
     */
    std::optional<DependenceSequence> lastSequence(std::size_t n) const;

    /**
     * Non-allocating variant: fill @p out with the most recent @p n
     * dependences, oldest first (reusing its storage). Returns false —
     * leaving @p out untouched — when fewer than @p n are buffered.
     */
    bool lastSequence(std::size_t n, DependenceSequence &out) const;

    /**
     * Full reset, including the overwrite counter: a cleared buffer is
     * indistinguishable from a freshly constructed one.
     */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        overwrites_ = 0;
    }

  private:
    std::size_t next(std::size_t i) const { return wrap(i + 1); }
    std::size_t wrap(std::size_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    std::size_t capacity_;
    std::vector<RawDependence> slots_; //!< Preallocated ring storage.
    std::size_t head_ = 0;             //!< Index of the oldest entry.
    std::size_t size_ = 0;
    std::uint64_t overwrites_ = 0;     //!< Entries lost to saturation.
};

/** One Debug Buffer record. */
struct DebugEntry
{
    DependenceSequence sequence;
    double output = 0.0;    //!< Raw NN output (< 0 = predicted invalid).
    SeqNum when = 0;        //!< Prediction index at logging time.
    ThreadId tid = 0;       //!< Thread whose load formed the sequence.
};

/**
 * Ring of the most recently flagged sequences (Table III: 60).
 */
class DebugBuffer
{
  public:
    explicit DebugBuffer(std::size_t capacity);

    /**
     * Log a flagged sequence; the oldest entry drops when full. The
     * sequence is copied into the slot's storage, which is reused
     * rather than reallocated.
     *
     * @return true when the ring was saturated and the oldest entry was
     *         overwritten (that flagged sequence is lost to postmortem).
     */
    bool log(const DependenceSequence &sequence, double output, SeqNum when,
             ThreadId tid);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    /** Lifetime count of oldest-entry overwrites under saturation. */
    std::uint64_t overwrites() const { return overwrites_; }

    /** Entries, oldest first (materialised from the ring). */
    std::vector<DebugEntry> entries() const;

    /** Total entries ever logged (including overwritten ones). */
    std::uint64_t totalLogged() const { return total_logged_; }

    /**
     * Distance from the newest entry (0 = newest) of the most recent
     * entry whose final dependence equals @p dep; nullopt if absent.
     */
    std::optional<std::size_t> positionOf(const RawDependence &dep) const;

    /**
     * Full reset: drops the buffered entries *and* the lifetime
     * totalLogged() counter, so a cleared buffer is indistinguishable
     * from a freshly constructed one (reuse across campaign jobs
     * depends on this).
     */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        total_logged_ = 0;
        overwrites_ = 0;
    }

  private:
    std::size_t wrap(std::size_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    std::size_t capacity_;
    std::vector<DebugEntry> slots_; //!< Preallocated ring storage.
    std::size_t head_ = 0;          //!< Index of the oldest entry.
    std::size_t size_ = 0;
    std::uint64_t total_logged_ = 0;
    std::uint64_t overwrites_ = 0;  //!< Entries lost to saturation.
};

} // namespace act

#endif // ACT_ACT_BUFFERS_HH
