/**
 * @file
 * Tests for the fault-injection campaign runner (ISSUE 4).
 *
 * The two properties everything downstream leans on:
 *
 *  1. *Reproducibility*: a campaign is a pure function of
 *     (CampaignConfig, seed) — outcome table, per-run signatures,
 *     cycle counts, everything, bit for bit.
 *  2. *Zero overhead when off*: the golden (uninjected) run takes
 *     exactly the same number of cycles as the same machine before
 *     this subsystem existed — the injector, ECC hooks, walk-retry
 *     loop and watchdog checks must vanish from the timing when
 *     disabled.
 *
 * Plus the headline coverage claims CI gates on: tag flips are
 * detected (not silently forged into capabilities) and SECDED
 * eliminates single-bit SDC entirely.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/campaign.h"
#include "fault/mesh_campaign.h"
#include "mem/tlb.h"
#include "sim/faultinject.h"

namespace gp::fault {
namespace {

TEST(Campaign, GoldenRunIsDeterministic)
{
    CampaignConfig cc;
    CampaignRunner a(cc), b(cc);
    EXPECT_EQ(a.goldenSignature(), b.goldenSignature());
    EXPECT_EQ(a.goldenCycles(), b.goldenCycles());
    EXPECT_GT(a.goldenCycles(), 0u);
}

TEST(Campaign, GoldenCyclesUnchangedByDisarmedHardeningKnobs)
{
    // The watchdog is pure observation: arming it must not move a
    // single cycle of a run that finishes inside the budget.
    CampaignConfig base;
    CampaignConfig watched = base;
    watched.maxCycles = 30000;
    watched.watchdogQuiescence = 5000;
    CampaignRunner a(base), b(watched);
    EXPECT_EQ(a.goldenCycles(), b.goldenCycles());
    EXPECT_EQ(a.goldenSignature(), b.goldenSignature());
}

TEST(Campaign, SameSeedSameCampaignBitForBit)
{
    CampaignConfig cc;
    cc.runs = 25;
    cc.seed = 12345;
    cc.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 5e-4;
    cc.faults.rate[unsigned(sim::FaultSite::TlbCorrupt)] = 2e-4;

    CampaignRunner a(cc), b(cc);
    const CampaignTotals ta = a.runAll();
    const CampaignTotals tb = b.runAll();

    for (unsigned o = 0; o < kOutcomeCount; ++o)
        EXPECT_EQ(ta.perOutcome[o], tb.perOutcome[o]);
    EXPECT_EQ(ta.totalInjections, tb.totalInjections);
    ASSERT_EQ(a.results().size(), b.results().size());
    for (size_t i = 0; i < a.results().size(); ++i) {
        const RunResult &ra = a.results()[i];
        const RunResult &rb = b.results()[i];
        EXPECT_EQ(ra.outcome, rb.outcome) << "run " << i;
        EXPECT_EQ(ra.cycles, rb.cycles) << "run " << i;
        EXPECT_EQ(ra.signature, rb.signature) << "run " << i;
        EXPECT_EQ(ra.injections, rb.injections) << "run " << i;
    }
}

TEST(Campaign, DifferentSeedsGiveDifferentRuns)
{
    CampaignConfig cc;
    cc.runs = 25;
    cc.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 1e-3;

    cc.seed = 1;
    CampaignRunner a(cc);
    a.runAll();
    cc.seed = 2;
    CampaignRunner b(cc);
    b.runAll();

    bool anyDiff = false;
    for (size_t i = 0; i < a.results().size(); ++i)
        anyDiff |= a.results()[i].signature !=
                   b.results()[i].signature;
    EXPECT_TRUE(anyDiff);
}

TEST(Campaign, ZeroRateCampaignIsAllMasked)
{
    CampaignConfig cc;
    cc.runs = 5;
    const CampaignTotals t = CampaignRunner(cc).runAll();
    EXPECT_EQ(t.outcome(Outcome::Masked), 5u);
    EXPECT_EQ(t.totalInjections, 0u);
}

TEST(Campaign, TlbUpsetOnAnEmptyTlbIsNoInjection)
{
    // The campaign's TLB tick targets strike a random live entry. An
    // empty TLB has none: the firing draws from the site's stream but
    // changes nothing, so it is not an injection.
    struct Disarm
    {
        ~Disarm() { sim::FaultInjector::instance().disarm(); }
    } disarm;
    auto &inj = sim::FaultInjector::instance();
    sim::FaultConfig fc;
    fc.rate[unsigned(sim::FaultSite::TlbInvalidate)] = 1.0;
    fc.rate[unsigned(sim::FaultSite::TlbCorrupt)] = 1.0;
    inj.arm(fc);
    mem::Tlb tlb(16);
    inj.setTickTarget(sim::FaultSite::TlbCorrupt, [&tlb](sim::Rng &rng) {
        return tlb.corruptRandom(rng);
    });
    inj.setTickTarget(sim::FaultSite::TlbInvalidate,
                      [&tlb](sim::Rng &rng) {
                          return tlb.invalidateRandom(rng);
                      });
    for (unsigned i = 0; i < 100; ++i)
        inj.tick();
    EXPECT_EQ(inj.injectedTotal(), 0u);
    // One resident entry: the next tick corrupts it, then invalidates
    // it; every tick after that finds the TLB empty again.
    tlb.insert(5, 9);
    for (unsigned i = 0; i < 100; ++i)
        inj.tick();
    EXPECT_EQ(inj.injected(sim::FaultSite::TlbCorrupt), 1u);
    EXPECT_EQ(inj.injected(sim::FaultSite::TlbInvalidate), 1u);
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Campaign, TlbInvalidationsCountOnlyLiveEntries)
{
    // Firing every cycle, tlb-invalidate removes each entry the
    // moment a miss fills it and finds the TLB empty on nearly every
    // other cycle: a run's injections are the entries it struck, far
    // fewer than its cycles. The outcomes do not depend on the count.
    CampaignConfig cc;
    cc.runs = 3;
    cc.seed = 9;
    cc.faults.rate[unsigned(sim::FaultSite::TlbInvalidate)] = 1.0;
    CampaignRunner runner(cc);
    const CampaignTotals t = runner.runAll();
    EXPECT_EQ(t.outcome(Outcome::Masked), 3u);
    uint64_t sum = 0;
    for (const RunResult &r : runner.results()) {
        EXPECT_GT(r.injections, 0u);
        EXPECT_LT(r.injections * 100, r.cycles);
        sum += r.injections;
    }
    EXPECT_EQ(t.totalInjections, sum);
}

TEST(Campaign, TagFlipsAreDetectedNotJustSilent)
{
    // The security headline: with no ECC at all, the tag bit itself
    // is the detector — a cleared tag faults the next capability
    // reload with NotAPointer. Detections must dominate forgeries.
    CampaignConfig cc;
    cc.runs = 60;
    cc.seed = 42;
    cc.faults.rate[unsigned(sim::FaultSite::MemTagBit)] = 3e-4;
    const CampaignTotals t = CampaignRunner(cc).runAll();
    EXPECT_GT(t.outcome(Outcome::DetectedFault), 0u);
    EXPECT_GT(t.outcome(Outcome::DetectedFault),
              t.outcome(Outcome::Sdc));
}

TEST(Campaign, SecdedEliminatesSingleBitSdc)
{
    CampaignConfig cc;
    cc.runs = 60;
    cc.seed = 7;
    cc.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 5e-4;
    cc.faults.rate[unsigned(sim::FaultSite::MemTagBit)] = 2e-4;

    cc.ecc = mem::EccMode::None;
    const CampaignTotals off = CampaignRunner(cc).runAll();
    cc.ecc = mem::EccMode::Secded;
    const CampaignTotals on = CampaignRunner(cc).runAll();

    EXPECT_GT(off.outcome(Outcome::Sdc) +
                  off.outcome(Outcome::DetectedFault),
              0u)
        << "unprotected memory must show damage at this rate";
    EXPECT_EQ(on.outcome(Outcome::Sdc), 0u)
        << "SECDED must eliminate single-bit SDC";
    EXPECT_EQ(on.outcome(Outcome::DetectedFault), 0u)
        << "single-bit strikes are correctable, not just detectable";
    EXPECT_GT(on.totalEccCorrected, 0u);
}

TEST(Campaign, WalkRetriesAbsorbTransients)
{
    CampaignConfig cc;
    cc.runs = 40;
    cc.seed = 3;
    cc.faults.rate[unsigned(sim::FaultSite::PtWalkTransient)] = 0.1;

    const CampaignTotals bare = CampaignRunner(cc).runAll();
    cc.walkRetries = 3;
    const CampaignTotals hard = CampaignRunner(cc).runAll();

    EXPECT_GT(bare.outcome(Outcome::DetectedFault), 0u)
        << "unretried transient walks must fault";
    EXPECT_EQ(hard.outcome(Outcome::DetectedFault), 0u);
    EXPECT_GT(hard.outcome(Outcome::Corrected), 0u)
        << "retried runs are golden-but-repaired, i.e. corrected";
}

TEST(Campaign, AllFiveOutcomeClassesReachable)
{
    // Matches the X1.2 bench configuration: stored-bit flips with a
    // tight watchdog reach masked/detected/SDC/crash-hang, SECDED
    // arms reach corrected.
    CampaignConfig cc;
    cc.runs = 60;
    cc.seed = 42;
    cc.maxCycles = 30000;
    cc.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 3e-4;
    const CampaignTotals off = CampaignRunner(cc).runAll();
    EXPECT_GT(off.outcome(Outcome::Masked), 0u);
    EXPECT_GT(off.outcome(Outcome::DetectedFault), 0u);
    EXPECT_GT(off.outcome(Outcome::Sdc), 0u);
    EXPECT_GT(off.outcome(Outcome::CrashHang), 0u);

    cc.ecc = mem::EccMode::Secded;
    const CampaignTotals on = CampaignRunner(cc).runAll();
    EXPECT_GT(on.outcome(Outcome::Corrected), 0u);
}

TEST(Campaign, OutcomeNamesAreStable)
{
    EXPECT_EQ(outcomeName(Outcome::Masked), "masked");
    EXPECT_EQ(outcomeName(Outcome::Corrected), "corrected");
    EXPECT_EQ(outcomeName(Outcome::DetectedFault), "detected-fault");
    EXPECT_EQ(outcomeName(Outcome::Sdc), "silent-data-corruption");
    EXPECT_EQ(outcomeName(Outcome::CrashHang), "crash-hang");
}

CampaignConfig
digestConfig()
{
    CampaignConfig cc;
    cc.runs = 16;
    cc.seed = 9;
    cc.faults.rate[unsigned(sim::FaultSite::MemDataBit)] = 5e-4;
    cc.faults.rate[unsigned(sim::FaultSite::TlbCorrupt)] = 2e-4;
    return cc;
}

TEST(Campaign, DigestRepeatsAcrossRunAllCalls)
{
    CampaignRunner runner(digestConfig());
    runner.runAll();
    const uint64_t first = runner.campaignSignature();
    runner.runAll();
    EXPECT_EQ(runner.campaignSignature(), first);

    // ... and it does depend on the campaign: another seed moves it.
    CampaignConfig other = digestConfig();
    other.seed = 10;
    CampaignRunner moved(other);
    moved.runAll();
    EXPECT_NE(moved.campaignSignature(), first);
}

TEST(Campaign, EveryFaultSiteBelongsToExactlyOneArm)
{
    for (unsigned i = 0; i < sim::kFaultSiteCount; ++i) {
        const auto site = static_cast<sim::FaultSite>(i);
        EXPECT_NE(CampaignRunner::wires(site),
                  MeshCampaignRunner::wires(site))
            << sim::faultSiteName(site);
    }
}

TEST(Campaign, StatsTablePublished)
{
    CampaignConfig cc;
    cc.runs = 4;
    CampaignRunner runner(cc);
    runner.runAll();
    EXPECT_EQ(runner.stats().get("runs"), 4u);
    EXPECT_EQ(runner.stats().get("outcome.masked"), 4u);
}

} // namespace
} // namespace gp::fault
