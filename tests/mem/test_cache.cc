/**
 * @file
 * Tests for the banked virtually-addressed cache: interleaving,
 * associativity/LRU, write-back, page invalidation (revocation), and
 * the ASID synonym behaviour the §5.1 comparison leans on.
 */

#include <gtest/gtest.h>

#include "mem/cache.h"

namespace gp::mem {
namespace {

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.banks = 4;
    c.lineBytes = 32;
    c.setsPerBank = 8;
    c.ways = 2;
    return c;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x101f, false).hit) << "same line";
    EXPECT_FALSE(cache.access(0x1020, false).hit) << "next line";
}

TEST(Cache, BankInterleavingByLineAddress)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.bankOf(0x00), 0u);
    EXPECT_EQ(cache.bankOf(0x20), 1u);
    EXPECT_EQ(cache.bankOf(0x40), 2u);
    EXPECT_EQ(cache.bankOf(0x60), 3u);
    EXPECT_EQ(cache.bankOf(0x80), 0u);
    EXPECT_EQ(cache.bankOf(0x1f), 0u) << "within-line offset ignored";
}

TEST(Cache, CapacityBytes)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.capacityBytes(), 4u * 8 * 2 * 32);
}

TEST(Cache, LruWithinSet)
{
    // Two ways: fill both, touch the first, insert a third mapping to
    // the same set; the untouched second way is evicted.
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8; // line*banks*sets
    cache.access(0x0, false);
    cache.access(set_stride, false);
    cache.access(0x0, false); // 0 becomes MRU
    cache.access(2 * set_stride, false);
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(set_stride));
    EXPECT_TRUE(cache.probe(2 * set_stride));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, true); // dirty
    cache.access(set_stride, false);
    auto r = cache.access(2 * set_stride, false); // evicts one of them
    // Evicting the dirty line must report a writeback; run one more
    // conflicting access so both victims have cycled.
    auto r2 = cache.access(3 * set_stride, false);
    EXPECT_TRUE(r.writeback || r2.writeback);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, false);
    cache.access(set_stride, false);
    auto r = cache.access(2 * set_stride, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, false);
    cache.access(0x0, true); // hit, now dirty
    cache.access(set_stride, false);
    auto r = cache.access(2 * set_stride, false);
    auto r2 = cache.access(3 * set_stride, false);
    EXPECT_TRUE(r.writeback || r2.writeback);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_FALSE(cache.probe(0x1000)) << "probe does not install";
    cache.access(0x1000, false);
    EXPECT_TRUE(cache.probe(0x1000));
    EXPECT_EQ(cache.stats().get("hits"), 0u)
        << "probe is not counted as an access";
}

TEST(Cache, AsidCreatesSynonyms)
{
    // The §5.1 point: with ASID-tagged lines, the same address from
    // two domains occupies two lines — no in-cache sharing.
    Cache cache(smallConfig());
    cache.access(0x1000, false, /*asid=*/1);
    EXPECT_FALSE(cache.probe(0x1000, 2));
    EXPECT_FALSE(cache.access(0x1000, false, 2).hit);
    EXPECT_TRUE(cache.probe(0x1000, 1));
    EXPECT_TRUE(cache.probe(0x1000, 2));
}

TEST(Cache, SharedLinesWithAsidZero)
{
    // Guarded pointers: one space, ASID always 0 — true sharing.
    Cache cache(smallConfig());
    cache.access(0x1000, false, 0);
    EXPECT_TRUE(cache.access(0x1000, false, 0).hit)
        << "any domain hits the same line";
}

TEST(Cache, InvalidatePageDropsAllItsLines)
{
    Cache cache(smallConfig());
    // Touch every line of the 4KB page at 0x2000 that fits the cache.
    for (uint64_t a = 0x2000; a < 0x3000; a += 32)
        cache.access(a, false);
    // Also a line in a different page.
    cache.access(0x8000, false);
    const PageInvalidation inv = cache.invalidatePage(0x2000, 12);
    EXPECT_GT(inv.invalidated, 0u);
    EXPECT_EQ(inv.writebacks, 0u) << "all lines were clean";
    for (uint64_t a = 0x2000; a < 0x3000; a += 32)
        EXPECT_FALSE(cache.probe(a)) << std::hex << a;
    EXPECT_TRUE(cache.probe(0x8000)) << "other pages untouched";
}

TEST(Cache, FlushAllReportsDirtyCount)
{
    Cache cache(smallConfig());
    cache.access(0x0, true);
    cache.access(0x20, true);
    cache.access(0x40, false);
    EXPECT_EQ(cache.flushAll(), 2u);
    EXPECT_FALSE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(0x40));
}

TEST(Cache, StatsCount)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x20, false);
    EXPECT_EQ(cache.stats().get("hits"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 2u);
}

TEST(Cache, SingleBankConfig)
{
    CacheConfig c = smallConfig();
    c.banks = 1;
    Cache cache(c);
    EXPECT_EQ(cache.bankOf(0x12345), 0u);
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
}

TEST(Cache, LruVictimSelectionExactAcrossFourWays)
{
    // 4-way set: fill all ways, refresh two of them, and check the
    // oldest untouched line is the one evicted — exact LRU, not an
    // approximation.
    CacheConfig c = smallConfig();
    c.ways = 4;
    Cache cache(c);
    const uint64_t set_stride = 32ull * 4 * 8;
    const uint64_t a = 0, b = set_stride, d = 2 * set_stride,
                   e = 3 * set_stride;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(d, false);
    cache.access(e, false);
    cache.access(a, false); // refresh a
    cache.access(d, false); // refresh d
    cache.access(4 * set_stride, false); // evicts LRU: b
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b)) << "b was least-recently used";
    EXPECT_TRUE(cache.probe(d));
    EXPECT_TRUE(cache.probe(e));
}

TEST(Cache, LruStampsAreMonotonicAcrossHitsAndMisses)
{
    // Recency ordering must reflect the *interleaved* hit/miss
    // sequence: a hit after a miss is more recent than the miss.
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, false);            // miss: stamp(0) = 1
    cache.access(set_stride, false);     // miss: stamp(s) = 2
    cache.access(0x0, false);            // hit:  stamp(0) = 3
    cache.access(2 * set_stride, false); // evicts s, not 0
    EXPECT_TRUE(cache.probe(0x0))
        << "the hit must have advanced line 0 past line s";
    EXPECT_FALSE(cache.probe(set_stride));
}

TEST(Cache, InvalidWayPreferredOverLruVictim)
{
    // With a free (invalid) way in the set, a miss must fill it
    // rather than evicting a valid line — even the LRU one.
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, false); // way 0; way 1 still invalid
    cache.access(set_stride, false);
    EXPECT_TRUE(cache.probe(0x0)) << "miss filled the invalid way";
    EXPECT_TRUE(cache.probe(set_stride));
}

TEST(Cache, VictimTieBreakDeterministicAfterFlush)
{
    // After flushAll every way is invalid with equal (stale) stamps;
    // consecutive misses must still fill distinct ways — the
    // tie-break is deterministic and never picks the same way twice.
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, true);
    cache.access(set_stride, true);
    cache.flushAll();
    auto r1 = cache.access(0x0, false);
    auto r2 = cache.access(set_stride, false);
    EXPECT_FALSE(r1.writeback) << "flushed lines are not re-evicted";
    EXPECT_FALSE(r2.writeback);
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_TRUE(cache.probe(set_stride));
}

TEST(Cache, AccessHitUpdatesLruLikeAccess)
{
    // The combined probe+update must be observationally identical to
    // the hit half of access(): it refreshes recency and counts the
    // hit.
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, false);
    cache.access(set_stride, false);
    EXPECT_TRUE(cache.accessHit(0x0, false)); // 0 becomes MRU
    EXPECT_EQ(cache.stats().get("hits"), 1u)
        << "accessHit counts the hit exactly like access()";
    cache.access(2 * set_stride, false); // evicts set_stride
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(set_stride))
        << "the accessHit must have refreshed line 0's recency";
}

TEST(Cache, AccessHitMissChangesNothing)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.accessHit(0x1000, false));
    EXPECT_FALSE(cache.probe(0x1000)) << "no install on miss";
    EXPECT_EQ(cache.stats().get("hits"), 0u);
    EXPECT_EQ(cache.stats().get("misses"), 0u)
        << "the miss is not counted either; the caller's access() "
           "call counts it when the fill actually happens";
}

TEST(Cache, AccessHitWriteMarksDirty)
{
    Cache cache(smallConfig());
    cache.access(0x0, false); // clean fill
    EXPECT_TRUE(cache.accessHit(0x0, true));
    EXPECT_EQ(cache.flushAll(), 1u)
        << "the write hit must have dirtied the line";
}

TEST(Cache, FlushAllStatsAccounting)
{
    Cache cache(smallConfig());
    cache.access(0x0, true);
    cache.access(0x20, true);
    cache.access(0x40, false);
    cache.flushAll();
    cache.flushAll(); // second flush finds nothing dirty
    EXPECT_EQ(cache.stats().get("full_flushes"), 2u);
    EXPECT_EQ(cache.stats().get("flush_writebacks"), 2u);
}

TEST(Cache, EvictionReportsVictimAsid)
{
    // A miss from one address space that evicts another space's
    // dirty line must attribute the writeback to the *victim's*
    // ASID, not the accessor's.
    Cache cache(smallConfig());
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, true, /*asid=*/7);        // dirty, domain 7
    cache.access(set_stride, false, /*asid=*/3); // fills way 1
    auto r = cache.access(2 * set_stride, false, /*asid=*/3);
    ASSERT_TRUE(r.writeback) << "the dirty LRU line was the victim";
    EXPECT_EQ(r.victimAsid, 7u)
        << "writeback belongs to the victim's address space";
    EXPECT_EQ(r.victimLineAddr, 0u);
}

TEST(Cache, InvalidatePageReportsDirtyWritebacks)
{
    // Regression: unmapping a page with dirty lines must surface
    // those lines as writebacks, never silently discard them.
    Cache cache(smallConfig());
    cache.access(0x2000, true);  // dirty
    cache.access(0x2040, true);  // dirty
    cache.access(0x2080, false); // clean
    const PageInvalidation inv = cache.invalidatePage(0x2000, 12);
    EXPECT_EQ(inv.invalidated, 3u);
    EXPECT_EQ(inv.writebacks, 2u)
        << "both dirty lines must be written back";
    EXPECT_EQ(cache.stats().get("invalidation_writebacks"), 2u);
}

TEST(CacheDeathTest, InvalidatePageRejectsSubLinePages)
{
    // page_shift < line shift would shift by a negative amount (UB);
    // the cache must refuse loudly instead.
    Cache cache(smallConfig()); // 32-byte lines => line shift 5
    EXPECT_DEATH(cache.invalidatePage(0x2000, 4),
                 "page shift 4 is smaller");
}

TEST(Cache, DirectMappedConfig)
{
    CacheConfig c = smallConfig();
    c.ways = 1;
    Cache cache(c);
    const uint64_t set_stride = 32ull * 4 * 8;
    cache.access(0x0, false);
    cache.access(set_stride, false); // conflict, evicts
    EXPECT_FALSE(cache.probe(0x0));
}

TEST(Cache, RecycledCacheStartsEmpty)
{
    // The first cache fills every way of every set, dirty; a cache
    // built after it in this thread takes over its line array.
    const CacheConfig c; // the MAP chip's 4096 lines
    const uint64_t span = 2 * Cache(c).capacityBytes();
    {
        Cache first(c);
        for (uint64_t a = 0; a < span; a += c.lineBytes)
            first.access(a, true, uint16_t(a >> 17));
        ASSERT_EQ(first.stats().get("misses"), span / c.lineBytes);
    }
    Cache second(c);
    for (uint64_t a = 0; a < span; a += c.lineBytes)
        ASSERT_FALSE(second.probe(a, uint16_t(a >> 17))) << std::hex << a;
    EXPECT_EQ(second.flushAll(), 0u);
    const CacheResult r = second.access(span - c.lineBytes, false, 1);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.writeback);
}

} // namespace
} // namespace gp::mem
