#include "act/weight_store.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
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
    const std::uint64_t threads = weights_.size();
    if (std::fwrite(&inputs, sizeof(inputs), 1, file.get()) != 1 ||
        std::fwrite(&hidden, sizeof(hidden), 1, file.get()) != 1 ||
        std::fwrite(&threads, sizeof(threads), 1, file.get()) != 1) {
        return false;
    }
    for (const ThreadId tid : tids()) {
        const std::uint64_t id = tid;
        const std::vector<double> &w = weights_.at(tid);
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
    // Entries are read into locals and installed only once the whole
    // file has read cleanly, so a failed load leaves the store as it
    // was.
    std::unordered_map<ThreadId, std::vector<double>> weights;
    const std::size_t count = WeightStore(topology).weightCount();
    for (std::uint64_t i = 0; i < threads; ++i) {
        std::uint64_t id = 0;
        if (std::fread(&id, sizeof(id), 1, file.get()) != 1)
            return false;
        // One set per thread: an id beyond ThreadId (as the retired
        // multi-member format wrote for its extra members) or a repeated
        // id would otherwise replace another thread's set unnoticed.
        if (id > std::numeric_limits<ThreadId>::max() ||
            weights.count(static_cast<ThreadId>(id)) != 0) {
            return false;
        }
        std::vector<double> w(count);
        if (std::fread(w.data(), sizeof(double), count, file.get()) !=
            count) {
            return false;
        }
        weights[static_cast<ThreadId>(id)] = std::move(w);
    }
    topology_ = topology;
    weights_ = std::move(weights);
    return true;
}

} // namespace act
