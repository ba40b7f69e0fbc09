#include "sim/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace act
{

Core::Core(const CoreConfig &config)
    : config_(config),
      issue_shift_(static_cast<unsigned>(std::countr_zero(config.issue_width)))
{
    ACT_ASSERT(std::has_single_bit(config_.issue_width));
}

void
Core::advanceInstructions(std::uint64_t count)
{
    stats_.instructions += count;
    // ceil(count / issue_width); a shift, as the width is a power of two.
    cycle_ += (count + config_.issue_width - 1) >> issue_shift_;
}

void
Core::completeLoad(Cycle latency)
{
    ++stats_.loads;
    ++stats_.instructions;
    // The load itself issues in one slot; its data latency is partly
    // hidden by the out-of-order window (up to issue_width independent
    // instructions per cycle continue underneath a short hit).
    const Cycle exposed = latency > 1 ? latency - 1 : 1;
    cycle_ += exposed;
    stats_.load_stall_cycles += exposed;
}

void
Core::completeStore()
{
    ++stats_.stores;
    ++stats_.instructions;
    // Stores retire into the store buffer: one issue slot.
    cycle_ += 1;
}

void
Core::actStall(Cycle cycles)
{
    cycle_ += cycles;
    stats_.act_stall_cycles += cycles;
}

void
Core::contextSwitch()
{
    cycle_ += config_.context_switch_flush;
}

void
Core::syncTo(Cycle cycle)
{
    cycle_ = std::max(cycle_, cycle);
}

} // namespace act
