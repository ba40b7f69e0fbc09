#include "act/weight_store.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/logging.hh"

namespace act
{

namespace
{

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

std::optional<std::vector<double>>
WeightStore::get(ThreadId tid) const
{
    const auto it = weights_.find(tid);
    if (it == weights_.end())
        return std::nullopt;
    return it->second;
}

void
WeightStore::set(ThreadId tid, std::vector<double> weights)
{
    ACT_ASSERT(weights.size() == weightCount());
    weights_[tid] = std::move(weights);
}

void
WeightStore::setAll(std::uint32_t count, const std::vector<double> &weights)
{
    for (ThreadId tid = 0; tid < count; ++tid)
        set(tid, weights);
}

std::optional<std::vector<double>>
WeightStore::getMember(ThreadId tid, std::size_t member) const
{
    if (member == 0)
        return get(tid);
    const auto it = members_.find(weightSetId(tid, member));
    if (it == members_.end())
        return std::nullopt;
    return it->second;
}

void
WeightStore::setMember(ThreadId tid, std::size_t member,
                       std::vector<double> weights)
{
    if (member == 0) {
        set(tid, std::move(weights));
        return;
    }
    ACT_ASSERT(weights.size() == weightCount());
    members_[weightSetId(tid, member)] = std::move(weights);
}

bool
WeightStore::hasMember(ThreadId tid, std::size_t member) const
{
    if (member == 0)
        return has(tid);
    return members_.count(weightSetId(tid, member)) != 0;
}

std::size_t
WeightStore::memberCountFor(ThreadId tid) const
{
    if (!has(tid))
        return 0;
    std::size_t count = 1;
    while (members_.count(weightSetId(tid, count)) != 0)
        ++count;
    return count;
}

std::vector<std::uint64_t>
WeightStore::memberIds() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(members_.size());
    for (const auto &[id, w] : members_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<ThreadId>
WeightStore::tids() const
{
    std::vector<ThreadId> ids;
    ids.reserve(weights_.size());
    for (const auto &[tid, w] : weights_)
        ids.push_back(tid);
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::size_t
WeightStore::weightCount() const
{
    return topology_.hidden * (topology_.inputs + 1) +
           (topology_.hidden + 1);
}

bool
WeightStore::save(const std::string &path) const
{
    FilePtr file(std::fopen(path.c_str(), "wb"));
    if (!file)
        return false;
    const std::uint64_t inputs = topology_.inputs;
    const std::uint64_t hidden = topology_.hidden;
    const std::uint64_t threads = weights_.size() + members_.size();
    if (std::fwrite(&inputs, sizeof(inputs), 1, file.get()) != 1 ||
        std::fwrite(&hidden, sizeof(hidden), 1, file.get()) != 1 ||
        std::fwrite(&threads, sizeof(threads), 1, file.get()) != 1) {
        return false;
    }
    for (const auto &[tid, w] : weights_) {
        const std::uint64_t id = tid;
        if (std::fwrite(&id, sizeof(id), 1, file.get()) != 1)
            return false;
        if (std::fwrite(w.data(), sizeof(double), w.size(), file.get()) !=
            w.size()) {
            return false;
        }
    }
    // Ensemble extras ride in the same entry stream with the member
    // index in the id's upper 32 bits: a store without extras writes a
    // file byte-identical to the pre-ensemble format, and old readers
    // of new files only ever see ids they can represent.
    for (const std::uint64_t id : memberIds()) {
        const std::vector<double> &w = members_.at(id);
        if (std::fwrite(&id, sizeof(id), 1, file.get()) != 1)
            return false;
        if (std::fwrite(w.data(), sizeof(double), w.size(), file.get()) !=
            w.size()) {
            return false;
        }
    }
    return true;
}

bool
WeightStore::load(const std::string &path)
{
    FilePtr file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return false;
    std::uint64_t inputs = 0;
    std::uint64_t hidden = 0;
    std::uint64_t threads = 0;
    if (std::fread(&inputs, sizeof(inputs), 1, file.get()) != 1 ||
        std::fread(&hidden, sizeof(hidden), 1, file.get()) != 1 ||
        std::fread(&threads, sizeof(threads), 1, file.get()) != 1) {
        return false;
    }
    // The header sizes every entry below, so it is validated before
    // anything is allocated: a corrupt or hostile header must fail the
    // load, not request a 2^40-double vector.
    const Topology topology{inputs, hidden};
    if (!topology.valid())
        return false;
    topology_ = topology;
    weights_.clear();
    members_.clear();
    const std::size_t count = weightCount();
    for (std::uint64_t i = 0; i < threads; ++i) {
        std::uint64_t id = 0;
        if (std::fread(&id, sizeof(id), 1, file.get()) != 1)
            return false;
        std::vector<double> w(count);
        if (std::fread(w.data(), sizeof(double), count, file.get()) !=
            count) {
            return false;
        }
        if (id >> 32 != 0)
            members_[id] = std::move(w);
        else
            weights_[static_cast<ThreadId>(id)] = std::move(w);
    }
    return true;
}

} // namespace act
