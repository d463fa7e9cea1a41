/**
 * @file
 * Tests for tagged physical memory: tag preservation on word accesses
 * and the security-critical tag-clearing on sub-word writes.
 */

#include <gtest/gtest.h>

#include "gp/pointer.h"
#include "mem/tagged_memory.h"

namespace gp::mem {
namespace {

TEST(TaggedMemory, UnwrittenReadsAsUntaggedZero)
{
    TaggedMemory m;
    Word w = m.readWord(0x1000);
    EXPECT_FALSE(w.isPointer());
    EXPECT_EQ(w.bits(), 0u);
}

TEST(TaggedMemory, WordRoundTripPreservesTag)
{
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0x100, p.value);
    Word back = m.readWord(0x100);
    EXPECT_TRUE(back.isPointer());
    EXPECT_EQ(back.bits(), p.value.bits());
}

TEST(TaggedMemory, IntWordRoundTrip)
{
    TaggedMemory m;
    m.writeWord(0x108, Word::fromInt(0x1122334455667788ull));
    EXPECT_EQ(m.readWord(0x108).bits(), 0x1122334455667788ull);
    EXPECT_FALSE(m.readWord(0x108).isPointer());
}

TEST(TaggedMemory, DistinctWordsAreIndependent)
{
    TaggedMemory m;
    m.writeWord(0x0, Word::fromInt(1));
    m.writeWord(0x8, Word::fromInt(2));
    EXPECT_EQ(m.readWord(0x0).bits(), 1u);
    EXPECT_EQ(m.readWord(0x8).bits(), 2u);
}

TEST(TaggedMemory, SubWordReadExtractsBytes)
{
    TaggedMemory m;
    m.writeWord(0x10, Word::fromInt(0x8877665544332211ull));
    auto load = [&m](uint64_t addr, unsigned size) {
        return m.access(false, addr, size).word.bits();
    };
    EXPECT_EQ(load(0x10, 1), 0x11u);
    EXPECT_EQ(load(0x11, 1), 0x22u);
    EXPECT_EQ(load(0x17, 1), 0x88u);
    EXPECT_EQ(load(0x10, 2), 0x2211u);
    EXPECT_EQ(load(0x12, 2), 0x4433u);
    EXPECT_EQ(load(0x10, 4), 0x44332211u);
    EXPECT_EQ(load(0x14, 4), 0x88776655u);
    EXPECT_EQ(load(0x10, 8), 0x8877665544332211ull);
}

TEST(TaggedMemory, SubWordWriteMergesBytes)
{
    TaggedMemory m;
    m.writeWord(0x20, Word::fromInt(0xffffffffffffffffull));
    m.access(true, 0x22, 2, Word::fromInt(0xabcd));
    EXPECT_EQ(m.readWord(0x20).bits(), 0xffffffffabcdffffull);
    m.access(true, 0x20, 1, Word::fromInt(0x00));
    EXPECT_EQ(m.readWord(0x20).bits(), 0xffffffffabcdff00ull);
    m.access(true, 0x24, 4, Word::fromInt(0x12345678));
    EXPECT_EQ(m.readWord(0x20).bits(), 0x12345678abcdff00ull);
}

TEST(TaggedMemory, SubWordWriteDestroysCapability)
{
    // Partially overwriting a pointer word must clear its tag — the
    // fragment must never remain usable as a capability.
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0x30, p.value);
    ASSERT_TRUE(m.readWord(0x30).isPointer());
    m.access(true, 0x30, 1, Word::fromInt(0xff));
    EXPECT_FALSE(m.readWord(0x30).isPointer());
}

TEST(TaggedMemory, FullWordByteWriteIsUntagged)
{
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    // Even writing the pointer's exact bit pattern through the
    // integer path yields an untagged word: no forging via stores.
    m.access(true, 0x40, 8, Word::fromInt(p.value.bits()));
    EXPECT_FALSE(m.readWord(0x40).isPointer());
    EXPECT_EQ(m.readWord(0x40).bits(), p.value.bits());
}

TEST(TaggedMemory, SubWordReadNeverExposesTag)
{
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0x50, p.value);
    // 4-byte read of a tagged word returns plain bits.
    const Word lo = m.access(false, 0x50, 4).word;
    EXPECT_FALSE(lo.isPointer());
    EXPECT_EQ(lo.bits(), p.value.bits() & 0xffffffffu);
}

TEST(TaggedMemory, SparseFootprint)
{
    TaggedMemory m;
    m.writeWord(0x0, Word::fromInt(1));
    m.writeWord(uint64_t(1) << 50, Word::fromInt(2));
    EXPECT_EQ(m.wordsAllocated(), 2u);
    EXPECT_EQ(m.readWord(uint64_t(1) << 50).bits(), 2u);
}

TEST(TaggedMemory, ClearDropsEverything)
{
    TaggedMemory m;
    m.writeWord(0x8, Word::fromInt(7));
    m.clear();
    EXPECT_EQ(m.wordsAllocated(), 0u);
    EXPECT_EQ(m.readWord(0x8).bits(), 0u);
}

} // namespace
} // namespace gp::mem
