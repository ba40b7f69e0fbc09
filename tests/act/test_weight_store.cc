/**
 * @file
 * Tests for per-thread weight persistence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

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

TEST(WeightStore, MemberZeroAliasesThePlainSet)
{
    WeightStore store(Topology{3, 4});
    std::vector<double> weights(store.weightCount(), 0.125);
    store.set(1, weights);
    EXPECT_TRUE(store.hasMember(1, 0));
    EXPECT_EQ(store.getMember(1, 0), store.get(1));
    EXPECT_EQ(store.memberCountFor(1), 1u);
    EXPECT_TRUE(store.memberIds().empty());
}

TEST(WeightStore, MemberSetAndGetRoundTrip)
{
    WeightStore store(Topology{3, 4});
    std::vector<double> w0(store.weightCount(), 0.1);
    std::vector<double> w1(store.weightCount(), 0.2);
    std::vector<double> w2(store.weightCount(), 0.3);
    store.set(5, w0);
    store.setMember(5, 1, w1);
    store.setMember(5, 2, w2);

    EXPECT_EQ(store.memberCountFor(5), 3u);
    EXPECT_EQ(store.getMember(5, 1), w1);
    EXPECT_EQ(store.getMember(5, 2), w2);
    EXPECT_FALSE(store.getMember(5, 3).has_value());
    EXPECT_FALSE(store.getMember(4, 1).has_value());

    // Ids are (member << 32 | tid), sorted for audits.
    const std::vector<std::uint64_t> ids = store.memberIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], weightSetId(5, 1));
    EXPECT_EQ(ids[1], weightSetId(5, 2));
    EXPECT_LT(ids[0], ids[1]);
}

TEST(WeightStore, SaveLoadCarriesEnsembleMembers)
{
    WeightStore store(Topology{4, 6});
    std::vector<double> w0(store.weightCount());
    std::vector<double> m1(store.weightCount());
    for (std::size_t i = 0; i < w0.size(); ++i) {
        w0[i] = 0.01 * static_cast<double>(i);
        m1[i] = -0.03 * static_cast<double>(i);
    }
    store.set(0, w0);
    store.setMember(0, 1, m1);

    const std::string path =
        std::string(::testing::TempDir()) + "weights_members.bin";
    ASSERT_TRUE(store.save(path));
    WeightStore loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.get(0), w0);
    EXPECT_EQ(loaded.getMember(0, 1), m1);
    EXPECT_EQ(loaded.memberCountFor(0), 2u);
    std::remove(path.c_str());
}

TEST(WeightStore, SingleMemberSaveStaysInThePreEnsembleFormat)
{
    // A store with no ensemble extras must serialise byte-identically
    // to the pre-ensemble writer, so old tooling keeps reading new
    // files (and vice versa).
    WeightStore store(Topology{4, 6});
    std::vector<double> w0(store.weightCount(), 0.5);
    store.set(0, w0);

    const std::string plain =
        std::string(::testing::TempDir()) + "weights_plain.bin";
    ASSERT_TRUE(store.save(plain));
    WeightStore loaded;
    ASSERT_TRUE(loaded.load(plain));
    EXPECT_TRUE(loaded.memberIds().empty());
    EXPECT_EQ(loaded.get(0), w0);
    std::remove(plain.c_str());
}

} // namespace
} // namespace act
