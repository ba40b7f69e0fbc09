#include "act/buffers.hh"

#include "act/act_config.hh"
#include "common/logging.hh"

namespace act
{

// The Table III constants above are the single source for the
// ActConfig defaults; a divergence here means someone re-hardcoded one
// of them.
static_assert(ActConfig{}.input_buffer_entries ==
                  kInputGeneratorBufferEntries,
              "ActConfig default must come from kInputGeneratorBufferEntries");
static_assert(ActConfig{}.debug_buffer_entries == kDebugBufferEntries,
              "ActConfig default must come from kDebugBufferEntries");

InputGeneratorBuffer::InputGeneratorBuffer(std::size_t capacity)
    : capacity_(capacity), slots_(capacity)
{
    ACT_ASSERT(capacity_ >= 1);
}

std::optional<DependenceSequence>
InputGeneratorBuffer::lastSequence(std::size_t n) const
{
    DependenceSequence seq;
    if (!lastSequence(n, seq))
        return std::nullopt;
    return seq;
}

bool
InputGeneratorBuffer::lastSequence(std::size_t n,
                                   DependenceSequence &out) const
{
    if (size_ < n)
        return false;
    out.deps.resize(n);
    std::size_t i = wrap(head_ + (size_ - n));
    for (std::size_t k = 0; k < n; ++k) {
        out.deps[k] = slots_[i];
        i = next(i);
    }
    return true;
}

DebugBuffer::DebugBuffer(std::size_t capacity)
    : capacity_(capacity), slots_(capacity)
{
    ACT_ASSERT(capacity_ >= 1);
}

bool
DebugBuffer::log(const DependenceSequence &sequence, double output,
                 SeqNum when, ThreadId tid)
{
    bool overwrote = false;
    std::size_t slot = 0;
    if (size_ == capacity_) {
        slot = head_;
        head_ = wrap(head_ + 1);
        ++overwrites_;
        overwrote = true;
    } else {
        slot = wrap(head_ + size_);
        ++size_;
    }
    DebugEntry &entry = slots_[slot];
    entry.sequence.deps.assign(sequence.deps.begin(), sequence.deps.end());
    entry.output = output;
    entry.when = when;
    entry.tid = tid;
    ++total_logged_;
    return overwrote;
}

std::vector<DebugEntry>
DebugBuffer::entries() const
{
    std::vector<DebugEntry> out;
    out.reserve(size_);
    for (std::size_t k = 0; k < size_; ++k)
        out.push_back(slots_[wrap(head_ + k)]);
    return out;
}

std::optional<std::size_t>
DebugBuffer::positionOf(const RawDependence &dep) const
{
    for (std::size_t i = 0; i < size_; ++i) {
        const auto &entry = slots_[wrap(head_ + (size_ - 1 - i))];
        if (!entry.sequence.deps.empty() &&
            entry.sequence.deps.back() == dep) {
            return i;
        }
    }
    return std::nullopt;
}

} // namespace act
