/**
 * @file
 * Tests for sim::ZeroedArray: slots start as T{}, clear() and the
 * destructor zero exactly what fill() marked, a recycled block reads
 * all T{} for its next owner, and an index past size() faults.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>

#include "sim/rng.h"
#include "sim/zeroed_array.h"

namespace gp::sim {
namespace {

/// 24 bytes: arrays of it do not end on a page boundary by size.
struct Slot
{
    uint64_t key = 0;
    uint64_t value = 0;
    uint32_t small = 0;
    bool flag = false;
};

bool
isEmpty(const Slot &s)
{
    return s.key == 0 && s.value == 0 && s.small == 0 && !s.flag;
}

void
fillSlot(ZeroedArray<Slot> &a, size_t i)
{
    Slot &s = a.fill(i);
    s.key = ~uint64_t(i);
    s.value = i * 3 + 1;
    s.small = 7;
    s.flag = true;
}

TEST(ZeroedArray, WrittenSlotReadsEmptyAfterClear)
{
    ZeroedArray<Slot> a(4096);
    fillSlot(a, 0);
    fillSlot(a, 1234);
    fillSlot(a, 4095);
    EXPECT_EQ(a[1234].value, 1234u * 3 + 1);
    a.clear();
    EXPECT_EQ(a.written(), 0u);
    EXPECT_TRUE(isEmpty(a[0]));
    EXPECT_TRUE(isEmpty(a[1234]));
    EXPECT_TRUE(isEmpty(a[4095]));
}

TEST(ZeroedArray, RecycledBlockReadsAllEmptyForItsNextOwner)
{
    // Sizes that share one block length: the second owner lays its
    // slots over the first's at another offset.
    const Slot *first_data = nullptr;
    {
        ZeroedArray<Slot> first(4000);
        first_data = &first[0];
        Rng rng(7);
        for (int k = 0; k < 500; ++k)
            fillSlot(first, rng.below(first.size()));
    }
    ZeroedArray<Slot> second(4000);
    EXPECT_EQ(&second[0], first_data) << "the block was not recycled";
    for (size_t i = 0; i < second.size(); ++i)
        ASSERT_TRUE(isEmpty(second[i])) << i;

    ZeroedArray<Slot> third(4000);
    EXPECT_NE(&third[0], first_data) << "two owners share a block";
    for (size_t i = 0; i < third.size(); ++i)
        ASSERT_TRUE(isEmpty(third[i])) << i;
}

TEST(ZeroedArray, RecycledBlockOfAnotherSizeReadsAllEmpty)
{
    {
        ZeroedArray<Slot> big(4096);
        for (size_t i = 0; i < big.size(); i += 3)
            fillSlot(big, i);
    }
    ZeroedArray<uint64_t> other(12000); // 96000 bytes: same 24 pages
    for (size_t i = 0; i < other.size(); ++i)
        ASSERT_EQ(other[i], 0u) << i;
}

TEST(ZeroedArray, WrittenMaskCoversEveryFill)
{
    for (size_t n : {1u, 63u, 64u, 65u, 1000u, 4096u, 10000u}) {
        ZeroedArray<Slot> a(n);
        ASSERT_LE((a.size() + a.chunkSize() - 1) / a.chunkSize(),
                  size_t(ZeroedArray<Slot>::kChunks));
        Rng rng(n);
        std::set<size_t> filled;
        for (int k = 0; k < 20; ++k) {
            const size_t i = rng.below(n);
            fillSlot(a, i);
            filled.insert(i);
        }
        uint64_t want = 0;
        for (size_t i : filled)
            want |= uint64_t(1) << (i / a.chunkSize());
        EXPECT_EQ(a.written(), want) << "n=" << n;

        // forEachWritten visits every filled slot, and every slot it
        // skips is empty.
        size_t visited_filled = 0, visited = 0;
        a.forEachWritten([&](const Slot &s) {
            ++visited;
            visited_filled += s.flag;
        });
        EXPECT_EQ(visited_filled, filled.size()) << "n=" << n;
        size_t nonempty = 0;
        for (size_t i = 0; i < n; ++i)
            nonempty += !isEmpty(a[i]);
        EXPECT_EQ(nonempty, filled.size()) << "n=" << n;
        EXPECT_LE(visited, n);
    }
}

TEST(ZeroedArrayDeathTest, OverrunPastSizeDies)
{
    auto overrun = [](size_t n) {
        auto a = std::make_unique<ZeroedArray<Slot>>(n);
        volatile uint64_t sink = (*a)[n].key;
        (void)sink;
    };
    EXPECT_DEATH(overrun(4096), "");
    EXPECT_DEATH(overrun(1000), "");
}

} // namespace
} // namespace gp::sim
