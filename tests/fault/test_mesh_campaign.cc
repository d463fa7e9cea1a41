/**
 * @file
 * Tests for the mesh fault-campaign runner (ISSUE 9).
 *
 * The properties CI gates on:
 *
 *  1. *Reproducibility*: a mesh campaign is a pure function of
 *     (MeshCampaignConfig) — outcome table, per-run failure sets,
 *     survivor signatures, everything, bit for bit — for EVERY
 *     host-thread count.
 *  2. *Zero-SDC under fail-stop*: node deaths and link failures are
 *     masked, absorbed (degraded-but-correct), or *detected* via the
 *     typed NodeUnreachable path; no survivor ever completes with a
 *     result that differs from the failure-free golden run.
 */

#include <gtest/gtest.h>

#include "fault/mesh_campaign.h"

namespace gp::fault {
namespace {

/** Small, fast geometry shared by every test here. */
MeshCampaignConfig
smallConfig()
{
    MeshCampaignConfig cc;
    cc.dimX = 2;
    cc.dimY = 2;
    cc.dimZ = 1;
    cc.runs = 6;
    cc.iterations = 24;
    return cc;
}

TEST(MeshCampaign, GoldenRunIsDeterministicAndFailureFree)
{
    MeshCampaignConfig cc = smallConfig();
    MeshCampaignRunner a(cc), b(cc);
    EXPECT_GT(a.goldenCycles(), 0u);
    EXPECT_EQ(a.goldenCycles(), b.goldenCycles());
    ASSERT_EQ(a.goldenNodeSignatures().size(), 4u);
    EXPECT_EQ(a.goldenNodeSignatures(), b.goldenNodeSignatures());
    // Distinct per-node workloads: signatures must not collide.
    EXPECT_NE(a.goldenNodeSignatures()[0],
              a.goldenNodeSignatures()[1]);
}

TEST(MeshCampaign, ZeroRatesMeansEveryRunMasked)
{
    MeshCampaignConfig cc = smallConfig();
    MeshCampaignRunner runner(cc);
    const MeshCampaignTotals t = runner.runAll();
    EXPECT_EQ(t.runs, cc.runs);
    EXPECT_EQ(t.outcome(MeshOutcome::Masked), cc.runs);
    EXPECT_EQ(t.totalInjections, 0u);
    EXPECT_EQ(t.totalDeadNodes, 0u);
}

TEST(MeshCampaign, SameConfigSameSignatureBitForBit)
{
    MeshCampaignConfig cc = smallConfig();
    cc.seed = 99;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 1e-3;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 2e-3;

    MeshCampaignRunner a(cc), b(cc);
    const MeshCampaignTotals ta = a.runAll();
    const MeshCampaignTotals tb = b.runAll();
    EXPECT_EQ(a.campaignSignature(), b.campaignSignature());
    for (unsigned o = 0; o < kMeshOutcomeCount; ++o)
        EXPECT_EQ(ta.perOutcome[o], tb.perOutcome[o]);
    ASSERT_EQ(a.results().size(), b.results().size());
    for (size_t i = 0; i < a.results().size(); ++i) {
        EXPECT_EQ(a.results()[i].outcome, b.results()[i].outcome);
        EXPECT_EQ(a.results()[i].deadNodes,
                  b.results()[i].deadNodes);
        EXPECT_EQ(a.results()[i].cycles, b.results()[i].cycles);
    }
}

TEST(MeshCampaign, SignatureIdenticalAcrossHostThreads)
{
    // The tentpole invariant, at the campaign level: host threads
    // are a performance knob, never a semantics knob.
    MeshCampaignConfig cc = smallConfig();
    cc.seed = 99;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 1e-3;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 2e-3;

    MeshCampaignConfig cc2 = cc;
    cc2.hostThreads = 2;
    MeshCampaignRunner t1(cc), t2(cc2);
    t1.runAll();
    t2.runAll();
    EXPECT_EQ(t1.campaignSignature(), t2.campaignSignature());
}

TEST(MeshCampaign, LostRepliesHangTheSameAtEveryThreadCount)
{
    // With retransmission off a dropped message is never resent: its
    // thread stalls forever, and only the node's own quiescence
    // watchdog ends the run. Which runs hang, and how, is a pure
    // function of the configuration.
    MeshCampaignConfig cc = smallConfig();
    cc.seed = 3;
    cc.retrans.enabled = false;
    cc.faults.rate[unsigned(sim::FaultSite::NocDrop)] = 3e-3;
    cc.hostThreads = 1;
    MeshCampaignRunner t1(cc);
    const MeshCampaignTotals totals = t1.runAll();
    EXPECT_GE(totals.outcome(MeshOutcome::Hang), 1u);
    EXPECT_GE(totals.outcome(MeshOutcome::Masked), 1u);
    cc.hostThreads = 4;
    MeshCampaignRunner t4(cc);
    t4.runAll();
    EXPECT_EQ(t1.campaignSignature(), t4.campaignSignature());
}

TEST(MeshCampaign, FailStopIsDetectedNeverSilent)
{
    // The headline tripwire: with node deaths armed hard enough to
    // actually kill homes mid-run, survivors must take typed
    // NodeUnreachable faults (detected) or still match golden
    // (masked / degraded-but-correct). SDC stays zero; nothing
    // hangs.
    MeshCampaignConfig cc = smallConfig();
    cc.runs = 8;
    cc.faults.rate[unsigned(sim::FaultSite::NodeFailStop)] = 2e-3;

    MeshCampaignRunner runner(cc);
    const MeshCampaignTotals t = runner.runAll();
    EXPECT_GT(t.totalInjections, 0u)
        << "rate chosen so the campaign actually injects";
    EXPECT_GT(t.outcome(MeshOutcome::DetectedFault), 0u);
    EXPECT_EQ(t.outcome(MeshOutcome::Sdc), 0u);
    EXPECT_EQ(t.outcome(MeshOutcome::Hang), 0u);
    for (const MeshRunResult &r : runner.results()) {
        EXPECT_EQ(r.survivorsWrong, 0u);
        if (r.outcome == MeshOutcome::DetectedFault) {
            EXPECT_EQ(r.firstFault, Fault::NodeUnreachable);
        }
    }
}

TEST(MeshCampaign, LinkFailuresAreAbsorbedByRerouting)
{
    // Link-only failures leave every node alive; the route-around
    // machinery must absorb them — runs degrade but stay correct.
    MeshCampaignConfig cc = smallConfig();
    cc.runs = 8;
    cc.faults.rate[unsigned(sim::FaultSite::LinkDown)] = 4e-3;

    MeshCampaignRunner runner(cc);
    const MeshCampaignTotals t = runner.runAll();
    EXPECT_GT(t.totalDownLinks, 0u);
    EXPECT_EQ(t.totalDeadNodes, 0u);
    EXPECT_EQ(t.outcome(MeshOutcome::Sdc), 0u);
    EXPECT_EQ(t.outcome(MeshOutcome::Hang), 0u);
    EXPECT_GT(t.outcome(MeshOutcome::Degraded) +
                  t.outcome(MeshOutcome::DetectedFault),
              0u);
}

TEST(MeshCampaign, StatsExportCarriesTheOutcomeTable)
{
    MeshCampaignConfig cc = smallConfig();
    MeshCampaignRunner runner(cc);
    runner.runAll();
    EXPECT_EQ(runner.stats().get("runs"), cc.runs);
    EXPECT_EQ(runner.stats().get("outcome.masked"), cc.runs);
    EXPECT_EQ(runner.stats().get("outcome.silent-data-corruption"),
              0u);
}

} // namespace
} // namespace gp::fault
