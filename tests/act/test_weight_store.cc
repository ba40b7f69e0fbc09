/**
 * @file
 * Tests for per-thread weight persistence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "act/weight_store.hh"

namespace act
{
namespace
{

TEST(WeightStore, WeightCountMatchesTopology)
{
    const WeightStore store(Topology{6, 10});
    EXPECT_EQ(store.weightCount(), 10u * 7u + 11u);
}

TEST(WeightStore, GetMissingReturnsNullopt)
{
    const WeightStore store(Topology{3, 4});
    EXPECT_FALSE(store.has(7));
    EXPECT_FALSE(store.get(7).has_value());
}

TEST(WeightStore, SetAndGet)
{
    WeightStore store(Topology{3, 4});
    std::vector<double> weights(store.weightCount(), 0.25);
    store.set(2, weights);
    EXPECT_TRUE(store.has(2));
    const auto got = store.get(2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, weights);
}

TEST(WeightStore, SetAllCoversThreadRange)
{
    WeightStore store(Topology{3, 4});
    std::vector<double> weights(store.weightCount(), -0.5);
    store.setAll(4, weights);
    EXPECT_EQ(store.size(), 4u);
    for (ThreadId tid = 0; tid < 4; ++tid)
        EXPECT_TRUE(store.has(tid));
    EXPECT_FALSE(store.has(4));
}

TEST(WeightStore, SaveLoadRoundTrip)
{
    WeightStore store(Topology{4, 6});
    std::vector<double> w0(store.weightCount());
    std::vector<double> w1(store.weightCount());
    for (std::size_t i = 0; i < w0.size(); ++i) {
        w0[i] = 0.01 * static_cast<double>(i);
        w1[i] = -0.02 * static_cast<double>(i);
    }
    store.set(0, w0);
    store.set(1, w1);

    const std::string path =
        std::string(::testing::TempDir()) + "weights.bin";
    ASSERT_TRUE(store.save(path));

    WeightStore loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.topology(), (Topology{4, 6}));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.get(0), w0);
    EXPECT_EQ(loaded.get(1), w1);
    std::remove(path.c_str());
}

TEST(WeightStore, LoadMissingFileFails)
{
    WeightStore store;
    EXPECT_FALSE(store.load("/nonexistent/weights.bin"));
}

/**
 * Write a one-entry store file by hand: the header claims @p inputs x
 * @p hidden, and the entry (id 0) carries @p doubles zero weights.
 */
std::string
writeStore(const char *name, std::uint64_t inputs, std::uint64_t hidden,
           std::size_t doubles)
{
    const std::string path = std::string(::testing::TempDir()) + name;
    std::FILE *file = std::fopen(path.c_str(), "wb");
    const std::uint64_t header[4] = {inputs, hidden, 1, 0};
    std::fwrite(header, sizeof(header), 1, file);
    for (std::size_t i = 0; i < doubles; ++i) {
        const double zero = 0.0;
        std::fwrite(&zero, sizeof(zero), 1, file);
    }
    std::fclose(file);
    return path;
}

TEST(WeightStore, LoadRejectsAnOversizedHeaderBeforeAllocating)
{
    // Sizing an entry from this header would request 2^80 bytes.
    const std::string path =
        writeStore("weights_huge.bin", std::uint64_t{1} << 40, 10, 0);
    WeightStore store(Topology{4, 6});
    EXPECT_FALSE(store.load(path));
    EXPECT_EQ(store.topology(), (Topology{4, 6}));
    std::remove(path.c_str());
}

TEST(WeightStore, LoadRejectsAnEmptyTopologyHeader)
{
    // A 0 x 0 network still has one weight (the output bias), so this
    // file is complete; only the topology check can reject it.
    const std::string path = writeStore("weights_empty.bin", 0, 0, 1);
    WeightStore store(Topology{4, 6});
    EXPECT_FALSE(store.load(path));
    EXPECT_EQ(store.topology(), (Topology{4, 6}));
    std::remove(path.c_str());
}

/**
 * Write a well-formed store file by hand: a @p topology header and one
 * entry of zero weights per id in @p ids, in the given order.
 */
std::string
writeEntries(const char *name, Topology topology,
             const std::vector<std::uint64_t> &ids)
{
    const std::string path = std::string(::testing::TempDir()) + name;
    std::FILE *file = std::fopen(path.c_str(), "wb");
    const std::uint64_t header[3] = {topology.inputs, topology.hidden,
                                     ids.size()};
    std::fwrite(header, sizeof(header), 1, file);
    const std::vector<double> zeros(WeightStore(topology).weightCount(),
                                    0.0);
    for (const std::uint64_t id : ids) {
        std::fwrite(&id, sizeof(id), 1, file);
        std::fwrite(zeros.data(), sizeof(double), zeros.size(), file);
    }
    std::fclose(file);
    return path;
}

TEST(WeightStore, LoadRejectsAnIdBeyondThreadId)
{
    // 2^32 is where a multi-member store kept thread 0's second member:
    // read as a thread id it would be truncated onto thread 0.
    const std::string path = writeEntries(
        "weights_wide_id.bin", Topology{4, 6}, {0, std::uint64_t{1} << 32});
    WeightStore store;
    EXPECT_FALSE(store.load(path));
    std::remove(path.c_str());
}

TEST(WeightStore, LoadRejectsARepeatedId)
{
    const std::string path =
        writeEntries("weights_repeat.bin", Topology{4, 6}, {2, 5, 2});
    WeightStore store;
    EXPECT_FALSE(store.load(path));
    std::remove(path.c_str());
}

TEST(WeightStore, FailedLoadLeavesTheStoreUnchanged)
{
    // A 3 x 5 file whose header promises two entries but holds one
    // (tid 7): the load must fail without touching the 4 x 6 store.
    const std::string path = std::string(::testing::TempDir()) +
                             "weights_truncated.bin";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    const std::uint64_t header[4] = {3, 5, 2, 7};
    std::fwrite(header, sizeof(header), 1, file);
    const std::vector<double> w7(WeightStore(Topology{3, 5}).weightCount(),
                                 0.75);
    std::fwrite(w7.data(), sizeof(double), w7.size(), file);
    std::fclose(file);

    WeightStore store(Topology{4, 6});
    const std::vector<double> w0(store.weightCount(), 0.5);
    const std::vector<double> w1(store.weightCount(), -0.25);
    store.set(0, w0);
    store.set(1, w1);
    EXPECT_FALSE(store.load(path));
    EXPECT_EQ(store.topology(), (Topology{4, 6}));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.get(0), w0);
    EXPECT_EQ(store.get(1), w1);
    EXPECT_FALSE(store.has(7));
    std::remove(path.c_str());
}

TEST(WeightStore, SaveWritesTheHeaderThenEntriesInTidOrder)
{
    // The byte pin of the file format: three u64 header words (inputs,
    // hidden, entry count), then per thread in tid order a u64 id and
    // its weightCount() doubles, native byte order.
    WeightStore store(Topology{4, 6});
    const std::vector<double> w3(store.weightCount(), 0.5);
    const std::vector<double> w1(store.weightCount(), -0.25);
    store.set(3, w3);
    store.set(1, w1);

    const std::string path =
        std::string(::testing::TempDir()) + "weights_bytes.bin";
    ASSERT_TRUE(store.save(path));
    std::string expected;
    const auto put = [&expected](const void *data, std::size_t bytes) {
        expected.append(static_cast<const char *>(data), bytes);
    };
    const std::uint64_t header[3] = {4, 6, 2};
    put(header, sizeof(header));
    for (const auto &[id, w] : {std::pair{std::uint64_t{1}, w1},
                                std::pair{std::uint64_t{3}, w3}}) {
        put(&id, sizeof(id));
        put(w.data(), w.size() * sizeof(double));
    }
    ASSERT_EQ(expected.size(), 3 * 8 + 2 * (8 + 37 * 8));

    std::string bytes;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char chunk[512];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        bytes.append(chunk, n);
    std::fclose(file);
    EXPECT_EQ(bytes, expected);

    WeightStore loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.get(1), w1);
    EXPECT_EQ(loaded.get(3), w3);
    std::remove(path.c_str());
}

} // namespace
} // namespace act
