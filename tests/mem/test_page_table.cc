/**
 * @file
 * Tests for the single global page table, including the revocation
 * semantics (unmap blocks demand re-allocation, §4.3).
 */

#include <gtest/gtest.h>

#include "mem/page_table.h"

namespace gp::mem {
namespace {

TEST(PageTable, MapAllocatesDistinctFrames)
{
    PageTable pt(4096);
    const uint64_t f0 = pt.map(10);
    const uint64_t f1 = pt.map(11);
    EXPECT_NE(f0, f1);
    EXPECT_EQ(pt.map(10), f0) << "remap keeps the frame";
    EXPECT_EQ(pt.mappedPages(), 2u);
}

TEST(PageTable, TranslateUnmappedIsNull)
{
    PageTable pt(4096);
    EXPECT_FALSE(pt.translate(99).has_value());
}

TEST(PageTable, VpnComputation)
{
    PageTable pt(4096);
    EXPECT_EQ(pt.pageShift(), 12u);
    EXPECT_EQ(pt.vpn(0), 0u);
    EXPECT_EQ(pt.vpn(4095), 0u);
    EXPECT_EQ(pt.vpn(4096), 1u);
    EXPECT_EQ(pt.vpn(0x12345678), 0x12345u);
}

TEST(PageTable, TranslateAddrDemandAllocates)
{
    PageTable pt(4096);
    auto pa = pt.translateAddr(0x5123);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa & 0xfffu, 0x123u) << "page offset preserved";
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, UnmapRemovesTranslation)
{
    PageTable pt(4096);
    pt.map(7);
    EXPECT_TRUE(pt.unmap(7));
    EXPECT_FALSE(pt.translate(7).has_value());
    EXPECT_FALSE(pt.unmap(7)) << "double unmap reports not-mapped";
}

TEST(PageTable, UnmapBlocksDemandRemap)
{
    // Revocation must not be undone by a stray touch.
    PageTable pt(4096);
    pt.map(pt.vpn(0x5000));
    pt.unmap(pt.vpn(0x5000));
    EXPECT_FALSE(pt.translateAddr(0x5123).has_value());
    // Explicit re-map lifts the block.
    pt.map(pt.vpn(0x5000));
    EXPECT_TRUE(pt.translateAddr(0x5123).has_value());
}

TEST(PageTable, LargePages)
{
    PageTable pt(1 << 16);
    EXPECT_EQ(pt.pageShift(), 16u);
    EXPECT_EQ(pt.vpn(0xffff), 0u);
    EXPECT_EQ(pt.vpn(0x10000), 1u);
}

TEST(PageTable, StatsTrackMapUnmap)
{
    PageTable pt(4096);
    pt.map(1);
    pt.map(2);
    pt.unmap(1);
    EXPECT_EQ(pt.stats().get("pages_mapped"), 2u);
    EXPECT_EQ(pt.stats().get("pages_unmapped"), 1u);
}

} // namespace
} // namespace gp::mem
