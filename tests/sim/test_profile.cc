/**
 * @file
 * Unit tests for the cycle-attribution profiler (gpprof backend).
 *
 * The machine-facing contract lives in
 * tests/integration/test_profile_workloads.cc (real workloads, exact
 * component-sum identities, observational invisibility). This file
 * drives the Profiler directly: the scratch-timeline normalisation
 * rules, per-cycle attribution bookkeeping, domain interning and
 * naming, call-gate stack semantics, and the JSON export schema.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/json.h"
#include "sim/profile.h"

namespace gp::sim {
namespace {

/** Every test starts and ends with a pristine, disarmed profiler. */
class ProfileTest : public ::testing::Test
{
  protected:
    void SetUp() override { Profiler::instance().reset(); }
    void TearDown() override { Profiler::instance().reset(); }

    Profiler &prof() { return Profiler::instance(); }

    ProfileConfig
    allModes()
    {
        ProfileConfig c;
        c.pc = c.domain = c.interval = c.stacks = true;
        return c;
    }
};

TEST_F(ProfileTest, DisarmedByDefault)
{
    EXPECT_FALSE(Profiler::armed());
    prof().arm(1, 1, ProfileConfig{});
    EXPECT_TRUE(Profiler::armed());
    prof().disarm();
    EXPECT_FALSE(Profiler::armed());
}

TEST_F(ProfileTest, ComponentNamesAreStable)
{
    EXPECT_EQ(profCompName(ProfComp::Issue), "issue");
    EXPECT_EQ(profCompName(ProfComp::IFetch), "ifetch");
    EXPECT_EQ(profCompName(ProfComp::DCache), "dcache");
    EXPECT_EQ(profCompName(ProfComp::TlbWalk), "tlbwalk");
    EXPECT_EQ(profCompName(ProfComp::Retransmit), "retransmit");
    EXPECT_EQ(profCompName(ProfComp::OtherStall), "otherstall");
}

TEST_F(ProfileTest, ScratchMergesAdjacentAndSkipsZero)
{
    // Forty segment calls fit the 16-segment scratch only because
    // adjacent same-component segments merge and empty ones are
    // skipped; otherwise the trailing TlbWalk cycles would clip into
    // a DCache segment.
    prof().arm(1, 1, allModes());
    prof().beginInst(0, 100, 0x1000, 0x1000, 0x2000);
    prof().accBegin(ProfComp::DCache);
    for (unsigned i = 0; i < 20; ++i) {
        prof().accSeg(ProfComp::DCache, 1);
        prof().accSeg(ProfComp::TlbWalk, 0);
    }
    prof().accSeg(ProfComp::TlbWalk, 4);
    prof().flushAccess(0, 24);
    prof().endInst(0, 125, ProfComp::Compute); // span 25: 24 + 1 tail

    ASSERT_EQ(prof().pcs().size(), 1u);
    const auto &pc = prof().pcs()[0];
    EXPECT_EQ(pc.comp[unsigned(ProfComp::Issue)], 1u);
    // The issue cycle eats the first DCache cycle of the timeline.
    EXPECT_EQ(pc.comp[unsigned(ProfComp::DCache)], 19u);
    EXPECT_EQ(pc.comp[unsigned(ProfComp::TlbWalk)], 4u);
    EXPECT_EQ(pc.comp[unsigned(ProfComp::Compute)], 1u);
}

TEST_F(ProfileTest, FlushPadsShortfallWithBaseComponent)
{
    // The layers itemised 2 TlbWalk cycles of a 6-cycle access; the
    // other 4 must be padded with the access's base component so the
    // record tiles the occupancy exactly.
    prof().arm(1, 1, allModes());
    prof().beginInst(0, 100, 0x1000, 0x1000, 0x2000);
    prof().accBegin(ProfComp::DCache);
    prof().accSeg(ProfComp::TlbWalk, 2);
    prof().flushAccess(0, 6);
    prof().endInst(0, 107, ProfComp::Compute); // span 7: 6 + 1 tail

    ASSERT_EQ(prof().pcs().size(), 1u);
    const auto &pc = prof().pcs()[0];
    EXPECT_EQ(pc.pc, 0x1000u);
    EXPECT_EQ(pc.insts, 1u);
    EXPECT_EQ(pc.cycles, 7u);
    uint64_t sum = 0;
    for (unsigned i = 0; i < kProfCompCount; ++i)
        sum += pc.comp[i];
    EXPECT_EQ(sum, pc.cycles) << "per-PC components tile occupancy";
    EXPECT_EQ(pc.comp[unsigned(ProfComp::Issue)], 1u);
    // The issue cycle eats the first TlbWalk cycle of the timeline.
    EXPECT_EQ(pc.comp[unsigned(ProfComp::TlbWalk)], 1u);
    EXPECT_EQ(pc.comp[unsigned(ProfComp::DCache)], 4u);
    EXPECT_EQ(pc.comp[unsigned(ProfComp::Compute)], 1u);
}

TEST_F(ProfileTest, FlushClipsExcessAgainstOccupancy)
{
    // The scratch claims 10 cycles but the access took 3: flush must
    // clip so endInst never sees covered > span residue.
    prof().arm(1, 1, allModes());
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().accBegin(ProfComp::DCache);
    prof().accSeg(ProfComp::Ecc, 10);
    prof().flushAccess(0, 3);
    prof().endInst(0, 4, ProfComp::Compute);

    const auto &pc = prof().pcs()[0];
    EXPECT_EQ(pc.cycles, 4u);
    EXPECT_EQ(pc.comp[unsigned(ProfComp::Ecc)], 2u)
        << "3 clipped cycles minus the issue cycle";
    EXPECT_EQ(pc.comp[unsigned(ProfComp::Compute)], 1u);
}

TEST_F(ProfileTest, AttributionIdentityHoldsPerCycle)
{
    // Hand-drive one cluster for 10 cycles: 3 issues, 5 stalls on a
    // dcache access, 2 empty. Every cycle must land somewhere and the
    // totals must close exactly.
    prof().arm(1, 2, ProfileConfig{});
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().attrIssue(0);
    prof().accBegin(ProfComp::DCache);
    prof().flushAccess(0, 6);
    for (uint64_t c = 1; c <= 5; ++c)
        prof().attrStall(0, c);
    prof().endInst(0, 6, ProfComp::Compute);
    prof().beginInst(0, 6, 0x1008, 0x1000, 0x2000);
    prof().attrIssue(0);
    prof().endInst(0, 7, ProfComp::Compute);
    prof().beginInst(0, 7, 0x1010, 0x1000, 0x2000);
    prof().attrIssue(0);
    prof().endInst(0, 8, ProfComp::Compute);
    prof().attrEmpty();
    prof().attrEmpty();

    EXPECT_EQ(prof().clusterCycles(), 10u);
    EXPECT_EQ(prof().instructions(), 3u);
    EXPECT_EQ(prof().comp(ProfComp::Issue), 3u);
    EXPECT_EQ(prof().comp(ProfComp::DCache), 5u);
    EXPECT_EQ(prof().comp(ProfComp::Empty), 2u);
    uint64_t sum = 0;
    for (unsigned i = 0; i < kProfCompCount; ++i)
        sum += prof().comp(ProfComp(i));
    EXPECT_EQ(sum, prof().clusterCycles());
    EXPECT_EQ(prof().threadCycles(0), 8u)
        << "issue + stall cycles belong to the thread; empty does not";
    EXPECT_EQ(prof().threadInsts(0), 3u);
}

TEST_F(ProfileTest, StallBeyondSegmentsIsOtherStall)
{
    prof().arm(1, 1, ProfileConfig{});
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().attrIssue(0);
    // No segments recorded: a stall at offset 3 has nothing to name.
    prof().attrStall(0, 3);
    EXPECT_EQ(prof().comp(ProfComp::OtherStall), 1u);
}

TEST_F(ProfileTest, StallBeforeFirstIssueLandsInUnknownDomain)
{
    // A thread whose very first fetch hangs has no open record; the
    // cycle must still be attributed so the identity closes.
    prof().arm(1, 1, allModes());
    prof().attrStall(0, 0);
    ASSERT_EQ(prof().domains().size(), 1u);
    EXPECT_EQ(prof().domains()[0].name, "unknown");
    EXPECT_EQ(prof().domains()[0].cycles, 1u);
    EXPECT_EQ(prof().clusterCycles(), 1u);
}

TEST_F(ProfileTest, RegisterDomainNamesBeforeOrAfterExecution)
{
    prof().arm(1, 1, allModes());
    // Before first execution in the domain:
    prof().registerDomain(0x1000, "early");
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().endInst(0, 1, ProfComp::Compute);
    // After the domain was interned:
    prof().beginInst(0, 1, 0x4000, 0x4000, 0x5000);
    prof().endInst(0, 2, ProfComp::Compute);
    prof().registerDomain(0x4000, "late");

    ASSERT_EQ(prof().domains().size(), 2u);
    EXPECT_EQ(prof().domains()[0].name, "early");
    EXPECT_EQ(prof().domains()[1].name, "late");
}

TEST_F(ProfileTest, ArmClearsRegisteredNames)
{
    prof().arm(1, 1, allModes());
    prof().registerDomain(0x1000, "stale");
    prof().arm(1, 1, allModes());
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().endInst(0, 1, ProfComp::Compute);
    ASSERT_EQ(prof().domains().size(), 1u);
    EXPECT_EQ(prof().domains()[0].name, "")
        << "arm() must drop names registered for the previous machine";
}

TEST_F(ProfileTest, GateStackPushesCallsAndPopsReturns)
{
    prof().arm(1, 1, allModes());
    auto step = [&](uint64_t n, uint64_t base) {
        prof().beginInst(0, n, base, base, base + 0x100);
        prof().endInst(0, n + 1, ProfComp::Compute);
    };
    step(0, 0x1000); // caller seeds the stack: [A]
    step(1, 0x2000); // call:   [A, B]
    step(2, 0x3000); // call:   [A, B, C]
    step(3, 0x1000); // return through B and C straight to A: [A]
    step(4, 0x2000); // call again: [A, B]

    ASSERT_EQ(prof().stacks().size(), 3u);
    EXPECT_EQ(prof().stacks()[0].frames.size(), 1u);
    EXPECT_EQ(prof().stacks()[1].frames.size(), 2u);
    EXPECT_EQ(prof().stacks()[2].frames.size(), 3u);
    EXPECT_EQ(prof().stacks()[0].cycles, 2u)
        << "the seed instruction and the return both ran in [A]";
    EXPECT_EQ(prof().stacks()[1].cycles, 2u);
    EXPECT_EQ(prof().stacks()[2].cycles, 1u);
    // Domain enters counted per crossing, not per instruction.
    EXPECT_EQ(prof().domains()[0].enters, 2u);
    EXPECT_EQ(prof().domains()[1].enters, 2u);
    EXPECT_EQ(prof().domains()[2].enters, 1u);
}

TEST_F(ProfileTest, IntervalSnapshotsDeltaNotCumulative)
{
    ProfileConfig cfg;
    cfg.interval = true;
    cfg.intervalCycles = 4;
    prof().arm(1, 1, cfg);
    for (uint64_t c = 1; c <= 12; ++c) {
        prof().attrEmpty();
        prof().tick(c);
    }
    ASSERT_EQ(prof().intervals().size(), 3u);
    for (const auto &iv : prof().intervals())
        EXPECT_EQ(iv.comp[unsigned(ProfComp::Empty)], 4u)
            << "each snapshot carries only its own interval's cycles";
    EXPECT_EQ(prof().intervals()[2].cycle, 12u);
}

TEST_F(ProfileTest, TickPastSeveralEdgesSnapshotsOnce)
{
    // A mesh ticks the profiler only at its epoch barriers. A tick
    // that jumps over several period edges takes one snapshot,
    // labelled with its own cycle, carrying everything since the
    // last one; the next snapshot waits for the next edge after it.
    ProfileConfig cfg;
    cfg.interval = true;
    cfg.intervalCycles = 4;
    prof().arm(1, 1, cfg);
    for (unsigned i = 0; i < 13; ++i)
        prof().attrEmpty();
    prof().tick(3);
    EXPECT_TRUE(prof().intervals().empty()) << "no edge reached yet";
    prof().tick(13); // passes 4, 8 and 12
    ASSERT_EQ(prof().intervals().size(), 1u);
    EXPECT_EQ(prof().intervals()[0].cycle, 13u);
    EXPECT_EQ(prof().intervals()[0].comp[unsigned(ProfComp::Empty)],
              13u);
    prof().tick(15);
    EXPECT_EQ(prof().intervals().size(), 1u) << "16 is the next edge";
    prof().attrEmpty();
    prof().tick(16);
    ASSERT_EQ(prof().intervals().size(), 2u);
    EXPECT_EQ(prof().intervals()[1].cycle, 16u);
    EXPECT_EQ(prof().intervals()[1].comp[unsigned(ProfComp::Empty)],
              1u);
}

TEST_F(ProfileTest, ExportJsonIsValidAndSelfConsistent)
{
    prof().arm(2, 2, allModes());
    prof().registerDomain(0x1000, "alpha");
    prof().registerSymbol("entry", 0x1000);
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().attrIssue(0);
    prof().endInst(0, 1, ProfComp::Compute);
    prof().attrEmpty();
    prof().disarm();

    std::ostringstream os;
    prof().exportJson(os);
    const std::string json = os.str();
    std::string error;
    EXPECT_TRUE(jsonParse(json, &error)) << error;
    EXPECT_NE(json.find("\"kind\": \"gpprof-profile\""),
              std::string::npos);
    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"entry\""), std::string::npos);
    EXPECT_NE(json.find("\"issue\""), std::string::npos);
    EXPECT_NE(json.find("\"stacks\""), std::string::npos);
}

TEST_F(ProfileTest, SummaryPrintsCpiStack)
{
    prof().arm(1, 1, allModes());
    prof().beginInst(0, 0, 0x1000, 0x1000, 0x2000);
    prof().attrIssue(0);
    prof().endInst(0, 1, ProfComp::Compute);
    prof().disarm();

    std::ostringstream os;
    prof().summary(os);
    EXPECT_NE(os.str().find("issue"), std::string::npos);
    EXPECT_NE(os.str().find("total cluster-cycles 1"),
              std::string::npos);
}

} // namespace
} // namespace gp::sim
