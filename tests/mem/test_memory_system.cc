/**
 * @file
 * Tests for the memory-system façade: the translate-only-on-miss
 * access sequence (§3), fault behaviour, timing/contention, tag flow
 * between registers and memory, and revocation by unmapping (§4.3).
 */

#include <gtest/gtest.h>

#include "gp/ops.h"
#include "mem/memory_system.h"
#include "sim/rng.h"

namespace gp::mem {
namespace {

MemConfig
smallConfig()
{
    MemConfig c;
    c.cache.banks = 4;
    c.cache.lineBytes = 32;
    c.cache.setsPerBank = 16;
    c.cache.ways = 2;
    c.tlbEntries = 8;
    return c;
}

Word
rw(uint64_t len, uint64_t addr)
{
    auto p = makePointer(Perm::ReadWrite, len, addr);
    EXPECT_TRUE(p);
    return p.value;
}

TEST(MemorySystem, StoreLoadRoundTrip)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    auto st = m.store(p, Word::fromInt(0xabcdef), 8);
    EXPECT_EQ(st.fault, Fault::None);
    auto ld = m.load(p, 8);
    EXPECT_EQ(ld.fault, Fault::None);
    EXPECT_EQ(ld.data.bits(), 0xabcdefu);
}

TEST(MemorySystem, PointerRoundTripKeepsTag)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    Word cap = rw(8, 0x20000);
    m.store(p, cap, 8);
    auto ld = m.load(p, 8);
    EXPECT_TRUE(ld.data.isPointer()) << "capabilities survive memory";
    EXPECT_EQ(ld.data.bits(), cap.bits());
}

TEST(MemorySystem, SubWordStoreClearsTag)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.store(p, rw(8, 0x20000), 8);
    // Overwrite one byte of the stored pointer.
    auto bytePtr = makePointer(Perm::ReadWrite, 12, 0x10003);
    ASSERT_TRUE(bytePtr);
    m.store(bytePtr.value, Word::fromInt(0xff), 1);
    auto ld = m.load(p, 8);
    EXPECT_FALSE(ld.data.isPointer());
}

TEST(MemorySystem, PermissionFaultCostsNoMemoryCycles)
{
    MemorySystem m(smallConfig());
    auto ro = makePointer(Perm::ReadOnly, 12, 0x10000);
    ASSERT_TRUE(ro);
    auto st = m.store(ro.value, Word::fromInt(1), 8, /*now=*/100);
    EXPECT_EQ(st.fault, Fault::PermissionDenied);
    EXPECT_EQ(st.completeCycle, 100u) << "checked before issue";
    EXPECT_EQ(m.stats().get("stores"), 0u);
}

TEST(MemorySystem, MissThenHitLatency)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    auto miss = m.load(p, 8, 0);
    EXPECT_FALSE(miss.cacheHit);
    // Miss: bank(1) + tlb(1) + walk(20) + ext(8) = 30.
    EXPECT_EQ(miss.latency(), 1u + 1 + 20 + 8);
    auto hit = m.load(p, 8, miss.completeCycle);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.latency(), 1u) << "hit = one bank access, no tables";
}

TEST(MemorySystem, TlbHitSkipsWalk)
{
    MemorySystem m(smallConfig());
    Word a = rw(12, 0x10000);
    Word b = rw(12, 0x10020); // same page, different line
    auto first = m.load(a, 8, 0);
    auto second = m.load(b, 8, first.completeCycle);
    EXPECT_FALSE(second.cacheHit);
    EXPECT_EQ(second.latency(), 1u + 1 + 8) << "translation cached";
}

TEST(MemorySystem, BankConflictSerializes)
{
    MemorySystem m(smallConfig());
    Word a = rw(12, 0x10000);
    Word b = rw(12, 0x10080); // same bank (line addr % 4 equal)
    ASSERT_EQ(m.bankOf(0x10000), m.bankOf(0x10080));
    // Warm both lines.
    uint64_t t = m.load(a, 8, 0).completeCycle;
    t = m.load(b, 8, t).completeCycle;
    // Issue both in the same cycle: the second stalls a cycle.
    auto r1 = m.load(a, 8, t);
    auto r2 = m.load(b, 8, t);
    EXPECT_EQ(r1.latency(), 1u);
    EXPECT_EQ(r2.completeCycle, r1.completeCycle + 1);
}

TEST(MemorySystem, DistinctBanksProceedInParallel)
{
    MemorySystem m(smallConfig());
    Word a = rw(12, 0x10000);
    Word b = rw(12, 0x10020); // adjacent line -> next bank
    ASSERT_NE(m.bankOf(0x10000), m.bankOf(0x10020));
    uint64_t t = m.load(a, 8, 0).completeCycle;
    t = std::max(t, m.load(b, 8, t).completeCycle);
    auto r1 = m.load(a, 8, t);
    auto r2 = m.load(b, 8, t);
    EXPECT_EQ(r1.completeCycle, r2.completeCycle)
        << "4 banks accept 4 refs/cycle (Fig. 5)";
}

TEST(MemorySystem, FetchRequiresExecute)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    EXPECT_EQ(m.fetch(p, 0).fault, Fault::PermissionDenied);
    auto x = makePointer(Perm::ExecuteUser, 12, 0x10000);
    ASSERT_TRUE(x);
    EXPECT_EQ(m.fetch(x.value, 0).fault, Fault::None);
}

TEST(MemorySystemDeathTest, LineLongerThanPageIsFatal)
{
    // A line's recorded frame must name the whole line.
    MemConfig c = smallConfig();
    c.cache.lineBytes = 2 * kPageBytes;
    EXPECT_DEATH(MemorySystem{c}, "smaller than the cache line");
}

TEST(MemorySystem, UnmapRangeRevokesAccess)
{
    MemorySystem m(smallConfig());
    Word p = rw(13, 0x10000); // 8KB segment = 2 pages
    m.store(p, Word::fromInt(42), 8);
    EXPECT_EQ(m.load(p, 8).fault, Fault::None);

    m.unmapRange(0x10000, 0x2000);
    auto after = m.load(p, 8);
    EXPECT_EQ(after.fault, Fault::UnmappedAddress)
        << "every pointer copy faults after revocation";

    // Second page revoked too.
    auto p2 = lea(p, 0x1000);
    ASSERT_TRUE(p2);
    EXPECT_EQ(m.load(p2.value, 8).fault, Fault::UnmappedAddress);
}

TEST(MemorySystem, MapRangeReinstates)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.store(p, Word::fromInt(7), 8);
    m.unmapRange(0x10000, 0x1000);
    m.mapRange(0x10000, 0x1000);
    auto ld = m.load(p, 8);
    EXPECT_EQ(ld.fault, Fault::None);
    EXPECT_EQ(ld.data.bits(), 7u)
        << "same frame, data still there after reinstatement";
}

TEST(MemorySystem, UnmapInvalidatesCachedLines)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.load(p, 8); // line now resident
    m.unmapRange(0x10000, 0x1000);
    auto acc = m.load(p, 8);
    EXPECT_EQ(acc.fault, Fault::UnmappedAddress)
        << "revocation reaches cached data";
}

TEST(MemorySystem, UnmapRangeWritesBackDirtyLines)
{
    // Regression: invalidatePage used to drop dirty lines on the
    // floor — the unmap path discarded the writeback count, so
    // revocation of a written page silently lost the data-movement
    // accounting. The writebacks must surface in the stats.
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.store(p, Word::fromInt(42), 8); // line now dirty in-cache
    EXPECT_EQ(m.stats().get("invalidation_writebacks"), 0u);
    m.unmapRange(0x10000, 0x1000);
    EXPECT_EQ(m.stats().get("invalidation_writebacks"), 1u)
        << "dirty lines must be written back, not dropped";
    EXPECT_EQ(m.stats().get("writebacks"), 1u)
        << "counted in the global writeback total too";
}

TEST(MemorySystem, UnmapRangeChargesWritebackTime)
{
    // The writeback is not free: it occupies the external port, so a
    // miss issued right after the unmap queues behind it. Use a
    // TLB-warm miss — a cold miss's 20-cycle page walk would hide
    // the 4-cycle writeback window entirely.
    MemorySystem m(smallConfig());
    Word q1 = rw(12, 0x40000);
    uint64_t t = m.load(q1, 8, 0).completeCycle; // warm q's page
    Word p = rw(12, 0x10000);
    t = m.store(p, Word::fromInt(1), 8, t).completeCycle; // dirty
    m.unmapRange(0x10000, 0x1000, t);
    Word q2 = rw(12, 0x40040); // same page as q1: TLB hit, cache miss
    auto acc = m.load(q2, 8, t);
    // Unblocked: bank(1) + tlb(1) + ext(8) = 10. The unmap writeback
    // holds the external port for writeback(4) cycles from t, and the
    // access only reaches the port at t+2, so it waits 2 more.
    EXPECT_EQ(acc.latency(), 1u + 1 + 8 + 2)
        << "the unmap writeback must delay the next external access";
}

TEST(MemorySystem, UnmapRangeCleanPagesChargeNothing)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.load(p, 8); // resident but clean
    m.unmapRange(0x10000, 0x1000);
    EXPECT_EQ(m.stats().get("invalidation_writebacks"), 0u);
    EXPECT_EQ(m.stats().get("writebacks"), 0u);
}

TEST(MemorySystem, PeekPokeBypassTiming)
{
    MemorySystem m(smallConfig());
    m.pokeWord(0x30000, Word::fromInt(0x11));
    EXPECT_EQ(m.peekWord(0x30000).bits(), 0x11u);
    EXPECT_EQ(m.stats().get("loads"), 0u);
}

TEST(MemorySystem, TryPeekDoesNotAllocate)
{
    MemorySystem m(smallConfig());
    const size_t before = m.pageTable().mappedPages();
    EXPECT_FALSE(m.tryPeekWord(0x77000).has_value());
    EXPECT_EQ(m.pageTable().mappedPages(), before);
    m.pokeWord(0x77000, Word::fromInt(1));
    ASSERT_TRUE(m.tryPeekWord(0x77000).has_value());
    EXPECT_EQ(m.tryPeekWord(0x77000)->bits(), 1u);
}

TEST(MemorySystem, MisalignedAccessFaults)
{
    MemorySystem m(smallConfig());
    auto p = makePointer(Perm::ReadWrite, 12, 0x10004);
    ASSERT_TRUE(p);
    EXPECT_EQ(m.load(p.value, 8).fault, Fault::Misaligned);
    EXPECT_EQ(m.load(p.value, 4).fault, Fault::None);
}

TEST(MemorySystem, SubWordLoadStore)
{
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.store(p, Word::fromInt(0x1122334455667788ull), 8);
    auto p4 = makePointer(Perm::ReadWrite, 12, 0x10004);
    ASSERT_TRUE(p4);
    auto ld = m.load(p4.value, 4);
    EXPECT_EQ(ld.data.bits(), 0x11223344u);
    m.store(p4.value, Word::fromInt(0xdeadbeef), 4);
    EXPECT_EQ(m.load(p, 8).data.bits(), 0xdeadbeef55667788ull);
}

TEST(MemorySystem, WritebackChargesExtPort)
{
    MemConfig cfg = smallConfig();
    cfg.cache.setsPerBank = 1;
    cfg.cache.ways = 1;
    cfg.cache.banks = 1;
    MemorySystem m(cfg);
    Word a = rw(12, 0x10000);
    Word b = rw(12, 0x10020);
    uint64_t t = m.store(a, Word::fromInt(1), 8, 0).completeCycle;
    // b maps to the same (only) line slot; evicting dirty a costs a
    // writeback on top of the fill. The page is already in the TLB,
    // so no walk.
    auto acc = m.load(b, 8, t);
    EXPECT_EQ(acc.latency(), 1u + 1 + 8 + 4);
}

TEST(MemorySystem, UnmapLeavesNoStaleFrameInTheCache)
{
    // A hit reads the frame its line recorded at fill. unmapRange()
    // is the only way to take a page's frame away, and it must not
    // leave a line behind that still names the frame.
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.store(p, Word::fromInt(42), 8); // the fill records the frame
    ASSERT_TRUE(m.load(p, 8).cacheHit);
    m.unmapRange(0x10000, 0x1000);
    EXPECT_EQ(m.load(p, 8).fault, Fault::UnmappedAddress)
        << "no line may serve a hit from the revoked frame";
    m.mapRange(0x10000, 0x1000);
    const MemAccess refill = m.load(p, 8);
    EXPECT_EQ(refill.fault, Fault::None);
    EXPECT_FALSE(refill.cacheHit);
    EXPECT_EQ(refill.data.bits(), 42u);
    const MemAccess hit = m.load(p, 8);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.data.bits(), 42u);
}

TEST(MemorySystem, CorruptedTlbMisdirectsOnlyItsOwnFill)
{
    // An injected TLB corruption names the wrong frame for the miss
    // that uses it. The line that miss fills records the page
    // table's frame, so the hits after it read the right word.
    MemorySystem m(smallConfig());
    Word p = rw(12, 0x10000);
    m.store(p, Word::fromInt(42), 8); // TLB now holds the page
    m.cache().flushAll();             // the line goes, the entry stays
    sim::Rng rng(1);
    ASSERT_TRUE(m.tlb().corruptRandom(rng));
    const MemAccess miss = m.load(p, 8);
    EXPECT_EQ(miss.fault, Fault::None);
    EXPECT_FALSE(miss.cacheHit);
    EXPECT_EQ(miss.data.bits(), 0u) << "read through the wrong frame";
    const MemAccess hit = m.load(p, 8);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.data.bits(), 42u) << "the hit uses the table's frame";
}

} // namespace
} // namespace gp::mem
