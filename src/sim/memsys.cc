#include "sim/memsys.hh"

#include <algorithm>
#include <bit>
#include <new>

#include "common/logging.hh"

namespace act
{

const char *
mesiName(Mesi state)
{
    switch (state) {
      case Mesi::kInvalid: return "I";
      case Mesi::kShared: return "S";
      case Mesi::kExclusive: return "E";
      case Mesi::kModified: return "M";
    }
    return "?";
}

template <typename T>
std::unique_ptr<T[], MemorySystem::FreeDeleter>
MemorySystem::alignedArray(std::size_t count)
{
    // aligned_alloc wants a multiple of the alignment.
    void *block = std::aligned_alloc(64, (count * sizeof(T) + 63) / 64 * 64);
    if (block == nullptr)
        throw std::bad_alloc();
    return std::unique_ptr<T[], FreeDeleter>(static_cast<T *>(block));
}

MemorySystem::MemorySystem(const MemSystemConfig &config)
    : config_(config)
{
    ACT_ASSERT(config_.cores >= 1);
    ACT_ASSERT(config_.line_bytes >= 4 &&
               std::has_single_bit(config_.line_bytes));

    // Set indices are taken by mask, so both set counts must be powers
    // of two (every geometry in Table III and its sweeps is).
    const std::uint32_t l2_lines = config_.l2_bytes / config_.line_bytes;
    const std::uint32_t l2_sets = l2_lines / config_.l2_assoc;
    ACT_ASSERT(std::has_single_bit(l2_sets));
    const std::uint32_t l1_lines = config_.l1_bytes / config_.line_bytes;
    l1_sets_ = l1_lines / config_.l1_assoc;
    ACT_ASSERT(std::has_single_bit(l1_sets_));
    l2_set_mask_ = l2_sets - 1;
    l1_set_mask_ = l1_sets_ - 1;

    words_ = config_.writer_granularity == Granularity::kWord
                 ? config_.line_bytes / 4
                 : 1;
    line_shift_ = 0;
    while ((config_.line_bytes >> line_shift_) > 1)
        ++line_shift_;
    // With per-line granularity the arena has one record per line, so
    // wordIndex must collapse to 0; a zero mask does that branch-free.
    word_mask_ = config_.writer_granularity == Granularity::kWord
                     ? config_.line_bytes - 1
                     : 0;
    transfer_cycles_ = config_.lineTransferCycles();

    const std::size_t l2_total =
        static_cast<std::size_t>(config_.cores) * l2_sets * config_.l2_assoc;
    l2_tags_ = alignedArray<std::uint64_t>(l2_total);
    std::fill_n(l2_tags_.get(), l2_total, packTag(0, Mesi::kInvalid));
    l2_lru_ = alignedArray<std::uint64_t>(l2_total);
    std::fill_n(l2_lru_.get(), l2_total, 0);
    writers_ = alignedArray<WriterRecord>(l2_total * words_);

    const std::size_t l1_total =
        static_cast<std::size_t>(config_.cores) * l1_sets_ * config_.l1_assoc;
    l1_tags_ = alignedArray<std::uint64_t>(l1_total);
    std::fill_n(l1_tags_.get(), l1_total, 0);
    l1_lru_ = alignedArray<std::uint64_t>(l1_total);
    std::fill_n(l1_lru_.get(), l1_total, 0);
}

std::size_t
MemorySystem::findLine(CoreId core, Addr line_addr) const
{
    const std::size_t base = l2Ways(core, line_addr);
    const std::uint64_t *ways = l2_tags_.get() + base;
    const std::uint64_t want = packTag(line_addr, Mesi::kInvalid);
    for (std::uint32_t w = 0; w < config_.l2_assoc; ++w) {
        // Equal addresses leave only the state bits, and a match needs
        // a valid state: 1..3, so (x - 1) < 3 with 0 wrapping high.
        if ((ways[w] ^ want) - 1 < kStateMask)
            return base + w;
    }
    return kNoLine;
}

std::size_t
MemorySystem::victimLine(CoreId core, Addr line_addr)
{
    const std::size_t base = l2Ways(core, line_addr);
    std::size_t victim = base;
    for (std::size_t i = base; i < base + config_.l2_assoc; ++i) {
        if (tagState(l2_tags_[i]) == Mesi::kInvalid)
            return i;
        if (l2_lru_[i] < l2_lru_[victim])
            victim = i;
    }
    // Evict: per Section V, last-writer metadata is not written back
    // to memory (unless the ablation flag says otherwise, in which
    // case this model simply keeps no record either way — the flag
    // exists to quantify the dependence-loss rate). The caller's
    // install rewrites the victim's tag word and clears its writer
    // block.
    ++stats_.evictions;
    l1Invalidate(core, l2_tags_[victim] >> kStateBits);
    return victim;
}

bool
MemorySystem::l1Lookup(CoreId core, Addr line_addr)
{
    const std::size_t base = l1Ways(core, line_addr);
    const std::uint64_t want = l1Tag(line_addr);
    for (std::size_t i = base; i < base + config_.l1_assoc; ++i) {
        if (l1_tags_[i] == want) {
            l1_lru_[i] = ++tick_;
            return true;
        }
    }
    std::size_t victim = base;
    for (std::size_t i = base; i < base + config_.l1_assoc; ++i) {
        if (l1_tags_[i] == 0) {
            victim = i;
            break;
        }
        if (l1_lru_[i] < l1_lru_[victim])
            victim = i;
    }
    l1_tags_[victim] = want;
    l1_lru_[victim] = ++tick_;
    return false;
}

void
MemorySystem::l1Invalidate(CoreId core, Addr line_addr)
{
    const std::size_t base = l1Ways(core, line_addr);
    const std::uint64_t want = l1Tag(line_addr);
    for (std::size_t i = base; i < base + config_.l1_assoc; ++i) {
        if (l1_tags_[i] == want)
            l1_tags_[i] = 0;
    }
}

MemAccess
MemorySystem::access(CoreId core, const TraceEvent &event)
{
    ACT_ASSERT(core < config_.cores);
    ACT_ASSERT(event.isMemory());

    const bool is_store = event.kind == EventKind::kStore;
    const Addr laddr = lineAddr(event.addr);
    const std::uint32_t word = wordIndex(event.addr);

    MemAccess result;
    const std::size_t line = findLine(core, laddr);
    const Mesi state =
        line != kNoLine ? tagState(l2_tags_[line]) : Mesi::kInvalid;
    result.prior_state = state;

    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    const bool l1_hit = l1Lookup(core, laddr) && line != kNoLine;

    if (line != kNoLine &&
        (is_store ? state == Mesi::kModified || state == Mesi::kExclusive
                  : true)) {
        // Local hit (loads hit in any valid state; stores need
        // ownership).
        l2_lru_[line] = ++tick_;
        WriterRecord *writers = lineWriters(line);
        if (is_store) {
            l2_tags_[line] = packTag(laddr, Mesi::kModified);
            writers[word] = WriterRecord{event.pc, event.tid};
            if (config_.writeback_writer_metadata) {
                auto &mem = memory_writers_[laddr];
                mem.resize(words_);
                mem[word] = writers[word];
            }
        } else {
            result.last_writer =
                writers[word].valid()
                    ? std::optional<WriterRecord>(writers[word])
                    : std::nullopt;
        }
        result.l1_hit = l1_hit;
        if (l1_hit) {
            result.level = AccessLevel::kL1;
            result.latency = config_.l1_latency;
            ++stats_.l1_hits;
        } else {
            result.level = AccessLevel::kL2;
            result.latency = config_.l1_latency + config_.l2_latency;
            ++stats_.l2_hits;
        }
        if (!is_store) {
            if (result.last_writer)
                ++stats_.writer_known;
            else
                ++stats_.writer_unknown;
        }
        return result;
    }

    // Miss or upgrade: snoop the other cores.
    std::size_t owner = kNoLine;
    bool owner_was_modified = false;
    bool any_sharer = false;
    for (CoreId c = 0; c < config_.cores; ++c) {
        if (c == core)
            continue;
        const std::size_t remote = findLine(c, laddr);
        if (remote == kNoLine)
            continue;
        any_sharer = true;
        const Mesi remote_state = tagState(l2_tags_[remote]);
        const bool owns = remote_state == Mesi::kModified ||
                          remote_state == Mesi::kExclusive;
        if (owns) {
            owner = remote;
            owner_was_modified = remote_state == Mesi::kModified;
        }
        if (is_store) {
            l2_tags_[remote] = packTag(laddr, Mesi::kInvalid);
            l1Invalidate(c, laddr);
            ++stats_.invalidations;
        } else if (owns) {
            l2_tags_[remote] = packTag(laddr, Mesi::kShared);
        }
    }

    const bool upgrade = line != kNoLine; // store to an S line
    const std::size_t dest = upgrade ? line : victimLine(core, laddr);
    WriterRecord *dest_writers = lineWriters(dest);
    if (!upgrade) {
        // The only clear of a writer block (see writers_).
        l2_tags_[dest] = packTag(laddr, Mesi::kInvalid);
        std::fill_n(dest_writers, words_, WriterRecord{});
    }
    l2_lru_[dest] = ++tick_;

    const Cycle base_latency = config_.l1_latency + config_.l2_latency;

    // Move last-writer metadata. For a load, Section V piggybacks it
    // only when the response is a dirty cache-to-cache transfer; the
    // ablation flags extend that to clean sharers and to memory.
    bool piggybacked = false;
    if (owner != kNoLine && !is_store &&
        (owner_was_modified || config_.always_piggyback_writer)) {
        std::copy_n(lineWriters(owner), words_, dest_writers);
        piggybacked = true;
    } else if (!is_store && config_.always_piggyback_writer) {
        for (CoreId c = 0; c < config_.cores && !piggybacked; ++c) {
            if (c == core)
                continue;
            const std::size_t remote = findLine(c, laddr);
            if (remote != kNoLine) {
                std::copy_n(lineWriters(remote), words_, dest_writers);
                piggybacked = true;
            }
        }
    }
    if (!piggybacked && !is_store && config_.writeback_writer_metadata) {
        if (const auto it = memory_writers_.find(laddr);
            it != memory_writers_.end()) {
            std::copy_n(it->second.data(),
                        std::min<std::size_t>(it->second.size(), words_),
                        dest_writers);
            piggybacked = true;
        }
    }

    // Injected coherence fault: the piggybacked metadata block is lost
    // in transit (kDrop) or arrives pointing at the wrong store
    // (kStale). One decision per transfer, not per word.
    if (piggybacked && config_.faults) {
        switch (config_.faults->onWriterTransfer()) {
        case WriterFaultAction::kNone:
            break;
        case WriterFaultAction::kDrop:
            std::fill_n(dest_writers, words_, WriterRecord{});
            piggybacked = false;
            break;
        case WriterFaultAction::kStale:
            for (std::uint32_t w = 0; w < words_; ++w) {
                if (dest_writers[w].valid())
                    dest_writers[w].pc ^= Pc{0x1000};
            }
            break;
        }
    }

    // An S->M upgrade moves no data but, like a fill, is charged the
    // memory latency and counted in memory_fetches (DESIGN.md §9).
    if (owner != kNoLine) {
        result.level = AccessLevel::kRemote;
        result.latency = base_latency + transfer_cycles_ + 4;
        ++stats_.cache_to_cache;
    } else {
        result.level = AccessLevel::kMemory;
        result.latency = base_latency + config_.memory_latency;
        ++stats_.memory_fetches;
    }

    if (is_store) {
        l2_tags_[dest] = packTag(laddr, Mesi::kModified);
        dest_writers[word] = WriterRecord{event.pc, event.tid};
        if (config_.writeback_writer_metadata) {
            auto &mem = memory_writers_[laddr];
            mem.resize(words_);
            mem[word] = dest_writers[word];
        }
    } else {
        l2_tags_[dest] =
            packTag(laddr, any_sharer ? Mesi::kShared : Mesi::kExclusive);
        if (piggybacked && dest_writers[word].valid())
            result.last_writer = dest_writers[word];
        if (result.last_writer)
            ++stats_.writer_known;
        else
            ++stats_.writer_unknown;
    }
    result.l1_hit = false;
    return result;
}

Mesi
MemorySystem::stateOf(CoreId core, Addr addr) const
{
    ACT_ASSERT(core < config_.cores);
    const std::size_t line = findLine(core, lineAddr(addr));
    return line != kNoLine ? tagState(l2_tags_[line]) : Mesi::kInvalid;
}

} // namespace act
