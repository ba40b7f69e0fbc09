#include "sim/memsys.hh"

#include <algorithm>
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

MemorySystem::MemorySystem(const MemSystemConfig &config)
    : config_(config)
{
    ACT_ASSERT(config_.cores >= 1);
    ACT_ASSERT(config_.line_bytes >= 4 &&
               (config_.line_bytes & (config_.line_bytes - 1)) == 0);

    const std::uint32_t l2_lines = config_.l2_bytes / config_.line_bytes;
    const std::uint32_t l2_sets = l2_lines / config_.l2_assoc;
    ACT_ASSERT(l2_sets >= 1);
    const std::uint32_t l1_lines = config_.l1_bytes / config_.line_bytes;
    const std::uint32_t l1_sets = l1_lines / config_.l1_assoc;
    ACT_ASSERT(l1_sets >= 1);

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

    l2_.resize(config_.cores);
    l1_.resize(config_.cores);
    for (CoreId c = 0; c < config_.cores; ++c) {
        l2_[c].sets = l2_sets;
        l2_[c].assoc = config_.l2_assoc;
        const auto l2_entries =
            static_cast<std::size_t>(l2_sets) * config_.l2_assoc;
        l2_[c].lines.resize(l2_entries);
        void *writers =
            std::malloc(l2_entries * words_ * sizeof(WriterRecord));
        if (writers == nullptr)
            throw std::bad_alloc();
        l2_[c].writers.reset(static_cast<WriterRecord *>(writers));

        l1_[c].sets = l1_sets;
        l1_[c].assoc = config_.l1_assoc;
        const auto n = static_cast<std::size_t>(l1_sets) *
                       config_.l1_assoc;
        l1_[c].tags.assign(n, 0);
        l1_[c].valid.assign(n, 0);
        l1_[c].lru.assign(n, 0);
    }
}

MemorySystem::Line *
MemorySystem::findLine(CoreId core, Addr line_addr)
{
    CacheArray &array = l2_[core];
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr % array.sets);
    Line *base = &array.lines[static_cast<std::size_t>(set) * array.assoc];
    for (std::uint32_t w = 0; w < array.assoc; ++w) {
        Line &line = base[w];
        if (line.state != Mesi::kInvalid && line.tag == line_addr)
            return &line;
    }
    return nullptr;
}

MemorySystem::Line &
MemorySystem::victimLine(CoreId core, Addr line_addr)
{
    CacheArray &array = l2_[core];
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr % array.sets);
    Line *base = &array.lines[static_cast<std::size_t>(set) * array.assoc];
    Line *victim = base;
    for (std::uint32_t w = 0; w < array.assoc; ++w) {
        Line &line = base[w];
        if (line.state == Mesi::kInvalid)
            return line;
        if (line.lru < victim->lru)
            victim = &line;
    }
    // Evict: per Section V, last-writer metadata is not written back
    // to memory (unless the ablation flag says otherwise, in which
    // case this model simply keeps no record either way — the flag
    // exists to quantify the dependence-loss rate). The caller's
    // install clears the victim's writer block.
    ++stats_.evictions;
    l1Invalidate(core, victim->tag);
    victim->state = Mesi::kInvalid;
    return *victim;
}

bool
MemorySystem::l1Lookup(CoreId core, Addr line_addr, bool allocate)
{
    L1Array &array = l1_[core];
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr % array.sets);
    const std::size_t base = static_cast<std::size_t>(set) * array.assoc;
    for (std::uint32_t w = 0; w < array.assoc; ++w) {
        if (array.valid[base + w] != 0 &&
            array.tags[base + w] == line_addr) {
            array.lru[base + w] = ++tick_;
            return true;
        }
    }
    if (!allocate)
        return false;
    std::size_t victim = base;
    for (std::uint32_t w = 0; w < array.assoc; ++w) {
        const std::size_t i = base + w;
        if (array.valid[i] == 0) {
            victim = i;
            break;
        }
        if (array.lru[i] < array.lru[victim])
            victim = i;
    }
    array.tags[victim] = line_addr;
    array.valid[victim] = 1;
    array.lru[victim] = ++tick_;
    return false;
}

void
MemorySystem::l1Invalidate(CoreId core, Addr line_addr)
{
    L1Array &array = l1_[core];
    const std::uint32_t set =
        static_cast<std::uint32_t>(line_addr % array.sets);
    const std::size_t base = static_cast<std::size_t>(set) * array.assoc;
    for (std::uint32_t w = 0; w < array.assoc; ++w) {
        if (array.valid[base + w] != 0 && array.tags[base + w] == line_addr)
            array.valid[base + w] = 0;
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
    Line *line = findLine(core, laddr);
    result.prior_state = line ? line->state : Mesi::kInvalid;

    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    const bool l1_hit = l1Lookup(core, laddr, /*allocate=*/true) &&
                        line != nullptr;

    if (line != nullptr &&
        (is_store ? line->state == Mesi::kModified ||
                        line->state == Mesi::kExclusive
                  : true)) {
        // Local hit (loads hit in any valid state; stores need
        // ownership).
        line->lru = ++tick_;
        WriterRecord *writers = lineWriters(l2_[core], line);
        if (is_store) {
            line->state = Mesi::kModified;
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
    Line *owner = nullptr;
    CoreId owner_core = kInvalidCore;
    bool owner_was_modified = false;
    bool any_sharer = false;
    for (CoreId c = 0; c < config_.cores; ++c) {
        if (c == core)
            continue;
        if (Line *remote = findLine(c, laddr)) {
            any_sharer = true;
            if (remote->state == Mesi::kModified ||
                remote->state == Mesi::kExclusive) {
                owner = remote;
                owner_core = c;
                owner_was_modified = remote->state == Mesi::kModified;
            }
            if (is_store) {
                remote->state = Mesi::kInvalid;
                l1Invalidate(c, laddr);
                ++stats_.invalidations;
            } else if (remote->state == Mesi::kModified ||
                       remote->state == Mesi::kExclusive) {
                remote->state = Mesi::kShared;
            }
        }
    }

    const bool upgrade = line != nullptr; // store to an S line
    Line &dest = upgrade ? *line : victimLine(core, laddr);
    WriterRecord *dest_writers = lineWriters(l2_[core], &dest);
    if (!upgrade) {
        // The only clear of a writer block (see CacheArray::writers).
        dest.tag = laddr;
        std::fill_n(dest_writers, words_, WriterRecord{});
    }
    dest.lru = ++tick_;

    const Cycle base_latency = config_.l1_latency + config_.l2_latency;

    // Move last-writer metadata. For a load, Section V piggybacks it
    // only when the response is a dirty cache-to-cache transfer; the
    // ablation flags extend that to clean sharers and to memory.
    bool piggybacked = false;
    if (owner != nullptr && !is_store &&
        (owner_was_modified || config_.always_piggyback_writer)) {
        std::copy_n(lineWriters(l2_[owner_core], owner), words_,
                    dest_writers);
        piggybacked = true;
    } else if (!is_store && config_.always_piggyback_writer) {
        for (CoreId c = 0; c < config_.cores && !piggybacked; ++c) {
            if (c == core)
                continue;
            if (Line *remote = findLine(c, laddr)) {
                std::copy_n(lineWriters(l2_[c], remote), words_,
                            dest_writers);
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

    if (owner != nullptr) {
        result.level = AccessLevel::kRemote;
        result.latency = base_latency + config_.lineTransferCycles() + 4;
        ++stats_.cache_to_cache;
    } else {
        result.level = AccessLevel::kMemory;
        result.latency = base_latency + config_.memory_latency;
        ++stats_.memory_fetches;
    }

    if (is_store) {
        dest.state = Mesi::kModified;
        dest_writers[word] = WriterRecord{event.pc, event.tid};
        if (config_.writeback_writer_metadata) {
            auto &mem = memory_writers_[laddr];
            mem.resize(words_);
            mem[word] = dest_writers[word];
        }
    } else {
        dest.state = any_sharer ? Mesi::kShared : Mesi::kExclusive;
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
    const Addr laddr = lineAddr(addr);
    const Line *line =
        const_cast<MemorySystem *>(this)->findLine(core, laddr);
    return line ? line->state : Mesi::kInvalid;
}

} // namespace act
