/**
 * @file
 * Tests for the pre-issue access check (§2.2 Load/Store): the complete
 * permission matrix, alignment rules, and the segment-smaller-than-
 * access corner.
 */

#include <gtest/gtest.h>

#include "gp/ops.h"

namespace gp {
namespace {

Word
ptrOf(Perm perm, uint64_t len = 12, uint64_t addr = 0x10000)
{
    auto p = makePointer(perm, len, addr);
    EXPECT_TRUE(p);
    return p.value;
}

struct AccessCase
{
    Perm perm;
    Access kind;
    Fault expected;
};

class AccessMatrix : public ::testing::TestWithParam<AccessCase>
{
};

TEST_P(AccessMatrix, PermissionRightsEnforced)
{
    const auto &c = GetParam();
    EXPECT_EQ(checkAccess(ptrOf(c.perm), c.kind, 8), c.expected)
        << permName(c.perm);
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, AccessMatrix,
    ::testing::Values(
        // Loads.
        AccessCase{Perm::ReadOnly, Access::Load, Fault::None},
        AccessCase{Perm::ReadWrite, Access::Load, Fault::None},
        AccessCase{Perm::ExecuteUser, Access::Load, Fault::None},
        AccessCase{Perm::ExecutePrivileged, Access::Load, Fault::None},
        AccessCase{Perm::EnterUser, Access::Load,
                   Fault::PermissionDenied},
        AccessCase{Perm::EnterPrivileged, Access::Load,
                   Fault::PermissionDenied},
        AccessCase{Perm::Key, Access::Load, Fault::PermissionDenied},
        // Stores.
        AccessCase{Perm::ReadOnly, Access::Store,
                   Fault::PermissionDenied},
        AccessCase{Perm::ReadWrite, Access::Store, Fault::None},
        AccessCase{Perm::ExecuteUser, Access::Store,
                   Fault::PermissionDenied},
        AccessCase{Perm::ExecutePrivileged, Access::Store,
                   Fault::PermissionDenied},
        AccessCase{Perm::EnterUser, Access::Store,
                   Fault::PermissionDenied},
        AccessCase{Perm::Key, Access::Store, Fault::PermissionDenied},
        // Instruction fetches.
        AccessCase{Perm::ReadOnly, Access::InstFetch,
                   Fault::PermissionDenied},
        AccessCase{Perm::ReadWrite, Access::InstFetch,
                   Fault::PermissionDenied},
        AccessCase{Perm::ExecuteUser, Access::InstFetch, Fault::None},
        AccessCase{Perm::ExecutePrivileged, Access::InstFetch,
                   Fault::None},
        AccessCase{Perm::EnterUser, Access::InstFetch,
                   Fault::PermissionDenied},
        AccessCase{Perm::Key, Access::InstFetch,
                   Fault::PermissionDenied}));

TEST(AccessCheck, UntaggedWordFaults)
{
    EXPECT_EQ(checkAccess(Word::fromInt(0x10000), Access::Load, 8),
              Fault::NotAPointer);
}

TEST(AccessCheck, InvalidPermissionEncodingFaults)
{
    Word bad = Word::fromRawPointerBits(uint64_t(11) << kPermShift);
    EXPECT_EQ(checkAccess(bad, Access::Load, 8),
              Fault::InvalidPermission);
}

TEST(AccessCheck, AlignmentRequired)
{
    Word p = ptrOf(Perm::ReadWrite, 12, 0x10004);
    EXPECT_EQ(checkAccess(p, Access::Load, 8), Fault::Misaligned);
    EXPECT_EQ(checkAccess(p, Access::Load, 4), Fault::None);
    Word odd = ptrOf(Perm::ReadWrite, 12, 0x10001);
    EXPECT_EQ(checkAccess(odd, Access::Load, 2), Fault::Misaligned);
    EXPECT_EQ(checkAccess(odd, Access::Load, 1), Fault::None);
}

TEST(AccessCheck, SizeMustBePowerOfTwoUpTo8)
{
    Word p = ptrOf(Perm::ReadWrite);
    EXPECT_EQ(checkAccess(p, Access::Load, 0), Fault::Misaligned);
    EXPECT_EQ(checkAccess(p, Access::Load, 3), Fault::Misaligned);
    EXPECT_EQ(checkAccess(p, Access::Load, 16), Fault::Misaligned);
    for (unsigned s : {1u, 2u, 4u, 8u})
        EXPECT_EQ(checkAccess(p, Access::Load, s), Fault::None) << s;
}

TEST(AccessCheck, SegmentSmallerThanAccessFaults)
{
    // A 4-byte segment cannot be read with an 8-byte load even though
    // the address is aligned.
    Word p = ptrOf(Perm::ReadWrite, 2, 0x10000);
    EXPECT_EQ(checkAccess(p, Access::Load, 8), Fault::BoundsViolation);
    EXPECT_EQ(checkAccess(p, Access::Load, 4), Fault::None);
}

TEST(AccessCheck, OneByteSegmentOnlyByteAccess)
{
    Word p = ptrOf(Perm::ReadWrite, 0, 0x10003);
    EXPECT_EQ(checkAccess(p, Access::Load, 1), Fault::None);
    // Misaligned fires first at 0x10003; at an aligned address the
    // segment-too-small bounds check rejects the access.
    EXPECT_EQ(checkAccess(p, Access::Load, 2), Fault::Misaligned);
    Word aligned = ptrOf(Perm::ReadWrite, 0, 0x10004);
    EXPECT_EQ(checkAccess(aligned, Access::Load, 2),
              Fault::BoundsViolation);
}

TEST(AccessCheck, NoTablesTouched)
{
    // The check is a pure function of the pointer — documented
    // property, verified here by construction: no memory system
    // exists in this test at all.
    Word p = ptrOf(Perm::ReadWrite, 30, uint64_t(3) << 30);
    EXPECT_EQ(checkAccess(p, Access::Store, 8), Fault::None);
}

TEST(LeaForAccess, PassingCheckIsCountedOnce)
{
    bool checked = false;
    auto r = leaForAccess(ptrOf(Perm::ReadWrite), 16, Access::Store, 8,
                          checked);
    ASSERT_TRUE(r);
    EXPECT_TRUE(checked);
    EXPECT_EQ(r.value.addr(), 0x10010u);
}

TEST(LeaForAccess, FailingCheckIsLeftToTheCaller)
{
    // Each failing half, with and without a displacement: the fused
    // call must report exactly what the split sequence
    // lea(ptr, delta) + checkAccess(result) would.
    struct Case
    {
        Word ptr;
        int64_t delta;
        Access kind;
        Fault expected;
    };
    const Case cases[] = {
        {ptrOf(Perm::ReadOnly), 8, Access::Store, Fault::PermissionDenied},
        {ptrOf(Perm::ReadWrite), 4, Access::Load, Fault::Misaligned},
        {ptrOf(Perm::ReadWrite), 0, Access::Load, Fault::None},
        {ptrOf(Perm::ReadOnly), 0, Access::Store, Fault::PermissionDenied},
        {Word::fromInt(0x10000), 0, Access::Load, Fault::NotAPointer},
        {ptrOf(Perm::ReadWrite), 4096, Access::Load, Fault::BoundsViolation},
    };
    for (const Case &c : cases) {
        bool checked = false;
        auto r = leaForAccess(c.ptr, c.delta, c.kind, 8, checked);
        Fault got = r ? Fault::None : r.fault;
        if (r && !checked)
            got = checkAccess(r.value, c.kind, 8);
        EXPECT_EQ(got, c.expected) << faultName(c.expected);
        EXPECT_EQ(leaCheckAccess(c.ptr, c.delta, c.kind, 8).fault,
                  c.expected);
    }
}

} // namespace
} // namespace gp
