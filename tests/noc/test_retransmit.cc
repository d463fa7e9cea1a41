/**
 * @file
 * Tests for link-level NoC retransmission under fault storms
 * (ISSUE 4).
 *
 * Raw links lose/corrupt messages silently; the protocol must turn
 * every storm the injector can mount — drops, duplicates, delays,
 * payload corruption, and all of them at once — into either a clean
 * delivery (possibly late) or an *explicit* abandonment after the
 * bounded attempt budget. It must never deliver a corrupted payload
 * and never double-deliver a duplicate.
 */

#include <gtest/gtest.h>

#include "noc/retransmit.h"
#include "sim/faultinject.h"

namespace gp::noc {
namespace {

using sim::FaultConfig;
using sim::FaultInjector;
using sim::FaultSite;

class RetransmitTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }

    static FaultConfig
    storm(double drop, double dup, double delay, double corrupt,
          uint64_t seed = 17)
    {
        FaultConfig fc;
        fc.seed = seed;
        fc.rate[unsigned(FaultSite::NocDrop)] = drop;
        fc.rate[unsigned(FaultSite::NocDuplicate)] = dup;
        fc.rate[unsigned(FaultSite::NocDelay)] = delay;
        fc.rate[unsigned(FaultSite::NocCorrupt)] = corrupt;
        return fc;
    }
};

TEST_F(RetransmitTest, FastPathMatchesRawMeshTiming)
{
    // Protocol off + injector disarmed must be *exactly* Mesh::send.
    Mesh meshA, meshB;
    Retransmitter rt(meshA, RetransConfig{}, "t_fast");
    uint64_t now = 0;
    for (unsigned m = 0; m < 500; ++m) {
        const unsigned from = m % 16, to = (m * 7 + 3) % 16;
        const Delivery d = rt.transfer(from, to, now, 4);
        const uint64_t raw = meshB.send(from, to, now, 4);
        ASSERT_TRUE(d.delivered);
        ASSERT_FALSE(d.corrupted);
        ASSERT_EQ(d.cycle, raw) << "message " << m;
        now = d.cycle;
    }
    EXPECT_EQ(rt.retransmissions(), 0u);
}

TEST_F(RetransmitTest, CleanLinksOneAttempt)
{
    Mesh mesh;
    RetransConfig rc;
    rc.enabled = true;
    Retransmitter rt(mesh, rc, "t_clean");
    const Delivery d = rt.transfer(0, 5, 100, 4);
    EXPECT_TRUE(d.delivered);
    EXPECT_FALSE(d.corrupted);
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_EQ(rt.retransmissions(), 0u);
}

TEST_F(RetransmitTest, RawLinkLosesAndCorrupts)
{
    Mesh mesh;
    Retransmitter rt(mesh, RetransConfig{}, "t_raw");
    FaultInjector::instance().arm(storm(0.2, 0.0, 0.0, 0.2));

    unsigned lost = 0, corrupted = 0;
    for (unsigned m = 0; m < 500; ++m) {
        const Delivery d = rt.transfer(0, 9, m * 50, 4);
        if (!d.delivered)
            lost++;
        else if (d.corrupted)
            corrupted++;
    }
    EXPECT_GT(lost, 0u) << "raw links must actually drop";
    EXPECT_GT(corrupted, 0u) << "raw links must corrupt silently";
}

TEST_F(RetransmitTest, ProtocolSurvivesDropStorm)
{
    Mesh mesh;
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 16; // generous budget: nothing abandoned
    Retransmitter rt(mesh, rc, "t_drop");
    FaultInjector::instance().arm(storm(0.3, 0.0, 0.0, 0.0));

    for (unsigned m = 0; m < 300; ++m) {
        const Delivery d = rt.transfer(1, 14, m * 1000, 4);
        ASSERT_TRUE(d.delivered) << "message " << m;
        ASSERT_FALSE(d.corrupted);
    }
    EXPECT_GT(rt.retransmissions(), 0u);
}

TEST_F(RetransmitTest, ProtocolNeverDeliversCorruptPayload)
{
    Mesh mesh;
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 16;
    Retransmitter rt(mesh, rc, "t_crc");
    FaultInjector::instance().arm(storm(0.0, 0.0, 0.0, 0.3));

    for (unsigned m = 0; m < 300; ++m) {
        const Delivery d = rt.transfer(2, 11, m * 1000, 4);
        ASSERT_TRUE(d.delivered);
        ASSERT_FALSE(d.corrupted)
            << "CRC must discard, not deliver, corrupt copies";
    }
    EXPECT_GT(rt.crcDiscards(), 0u);
}

TEST_F(RetransmitTest, CombinedStormDeliversOrAbandonsExplicitly)
{
    Mesh mesh;
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 4;
    Retransmitter rt(mesh, rc, "t_storm");
    FaultInjector::instance().arm(storm(0.35, 0.2, 0.3, 0.35));

    unsigned delivered = 0, abandoned = 0;
    for (unsigned m = 0; m < 400; ++m) {
        const Delivery d = rt.transfer(3, 12, m * 5000, 4);
        EXPECT_FALSE(d.corrupted);
        if (d.delivered)
            delivered++;
        else
            abandoned++;
        EXPECT_LE(d.attempts, rc.maxAttempts);
    }
    EXPECT_GT(delivered, 0u);
    EXPECT_GT(abandoned, 0u)
        << "a 35%% drop rate with 4 attempts must abandon some";
    EXPECT_EQ(uint64_t(abandoned), rt.abandoned());
    EXPECT_GT(rt.duplicatesSuppressed(), 0u);
}

TEST_F(RetransmitTest, RetriesCostLatency)
{
    // The hardening is not free: under a drop storm the delivered
    // cycle must be later than the clean-link cycle for at least
    // the retried messages.
    Mesh meshClean, meshStorm;
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 16;
    Retransmitter clean(meshClean, rc, "t_lat_a");
    Retransmitter stormy(meshStorm, rc, "t_lat_b");

    uint64_t cleanTotal = 0, stormTotal = 0;
    for (unsigned m = 0; m < 200; ++m)
        cleanTotal += clean.transfer(0, 13, m * 1000, 4).cycle -
                      m * 1000;
    FaultInjector::instance().arm(storm(0.3, 0.0, 0.0, 0.0));
    for (unsigned m = 0; m < 200; ++m)
        stormTotal += stormy.transfer(0, 13, m * 1000, 4).cycle -
                      m * 1000;
    EXPECT_GT(stormTotal, cleanTotal);
}

TEST_F(RetransmitTest, ExhaustionCyclePinsTheBackoffSequence)
{
    // The give-up cycle IS the backoff schedule: timeout doubles per
    // attempt, capped at shift 8. Pin both regimes exactly.
    Mesh mesh;
    RetransConfig rc;
    rc.enabled = true;
    rc.timeout = 64;
    rc.maxAttempts = 5;
    Retransmitter rt(mesh, rc, "t_exh_a");
    // 64 * (1 + 2 + 4 + 8 + 16)
    EXPECT_EQ(rt.exhaustionCycle(0), 64u * 31u);
    EXPECT_EQ(rt.exhaustionCycle(1000), 1000 + 64u * 31u);

    rc.maxAttempts = 12;
    Retransmitter capped(mesh, rc, "t_exh_b");
    // Shifts 0..8 then capped: 64 * (511 + 3 * 256)
    EXPECT_EQ(capped.exhaustionCycle(0), 64u * (511u + 3u * 256u));
}

TEST_F(RetransmitTest, DeadHomeExhaustsExactlyAtTheBudget)
{
    // A fail-stopped destination with the protocol ON: every attempt
    // burns its full timeout (the sender cannot tell a dead home
    // from a slow one), the budget is consumed to exactly
    // maxAttempts, and the failure is typed unreachable at exactly
    // the exhaustion cycle — the bound the end-to-end caller turns
    // into a NodeUnreachable fault.
    Mesh mesh;
    mesh.failNode(9);
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 5;
    Retransmitter rt(mesh, rc, "t_dead");

    const Delivery d = rt.transfer(0, 9, 5000, 4);
    EXPECT_FALSE(d.delivered);
    EXPECT_TRUE(d.unreachable);
    EXPECT_EQ(d.attempts, rc.maxAttempts);
    EXPECT_EQ(d.cycle, rt.exhaustionCycle(5000));
    EXPECT_EQ(rt.unreachableFailures(), 1u);
    EXPECT_EQ(rt.abandoned(), 1u);
}

TEST_F(RetransmitTest, RawLinkReportsUnreachableImmediately)
{
    // Protocol OFF: the route table knows the home is gone, so the
    // raw path fails typed-unreachable on the first attempt with no
    // timeout burned — the caller still gets the typed signal.
    Mesh mesh;
    mesh.failNode(9);
    Retransmitter rt(mesh, RetransConfig{}, "t_dead_raw");
    const Delivery d = rt.transfer(0, 9, 5000, 4);
    EXPECT_FALSE(d.delivered);
    EXPECT_TRUE(d.unreachable);
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_EQ(d.cycle, 5000u);
}

TEST_F(RetransmitTest, FinalAttemptBoundaryBothDirections)
{
    // The exhaustion boundary, both sides: under a heavy (seeded,
    // deterministic) drop storm with a tight budget, some transfers
    // must succeed on EXACTLY the final allowed attempt and some
    // must exhaust — and every exhausted transfer gives up at
    // exactly the full-backoff cycle, never before or after.
    Mesh mesh;
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 3;
    Retransmitter rt(mesh, rc, "t_edge");
    FaultInjector::instance().arm(storm(0.5, 0.0, 0.0, 0.0, 29));

    unsigned lastGasp = 0, exhausted = 0;
    for (unsigned m = 0; m < 400; ++m) {
        const uint64_t now = m * 4000;
        const Delivery d = rt.transfer(4, 11, now, 4);
        ASSERT_LE(d.attempts, rc.maxAttempts);
        if (d.delivered && d.attempts == rc.maxAttempts)
            lastGasp++;
        if (!d.delivered) {
            exhausted++;
            EXPECT_EQ(d.attempts, rc.maxAttempts);
            EXPECT_EQ(d.cycle, rt.exhaustionCycle(now))
                << "message " << m;
            EXPECT_FALSE(d.unreachable)
                << "drops are not route failures";
        }
    }
    EXPECT_GT(lastGasp, 0u)
        << "a 50% drop rate must save some on the final attempt";
    EXPECT_GT(exhausted, 0u);
    EXPECT_EQ(rt.unreachableFailures(), 0u);
}

TEST_F(RetransmitTest, DeterministicUnderSeed)
{
    auto run = [this](uint64_t seed) {
        Mesh mesh;
        RetransConfig rc;
        rc.enabled = true;
        Retransmitter rt(mesh, rc, "t_det");
        FaultInjector::instance().arm(
            storm(0.2, 0.1, 0.2, 0.2, seed));
        std::vector<uint64_t> cycles;
        for (unsigned m = 0; m < 200; ++m)
            cycles.push_back(rt.transfer(0, 13, m * 500, 4).cycle);
        FaultInjector::instance().disarm();
        return cycles;
    };
    EXPECT_EQ(run(21), run(21));
    EXPECT_NE(run(21), run(22));
}

TEST_F(RetransmitTest, AccessorsReadTheStatCounters)
{
    // A raw and a reliable engine share one degraded mesh under a
    // mixed storm: node 15 is dead, and node 12 can receive but not
    // send, so reliable transfers to it lose their acks. Every
    // counter accessor must read its engine's stat counter.
    Mesh mesh;
    mesh.failNode(15);
    for (unsigned d = 0; d < 6; ++d)
        if (mesh.neighbor(12, d) >= 0)
            mesh.failLink(12, d);
    RetransConfig rc;
    rc.enabled = true;
    rc.maxAttempts = 4;
    Retransmitter raw(mesh, RetransConfig{}, "t_acc_raw");
    Retransmitter reliable(mesh, rc, "t_acc_rel");
    FaultInjector::instance().arm(storm(0.3, 0.2, 0.3, 0.3, 41));

    const unsigned dsts[] = {9, 12, 15, 6};
    for (unsigned m = 0; m < 400; ++m) {
        const unsigned to = dsts[m % 4];
        raw.transfer(0, to, m * 5000, 4);
        reliable.transfer(1, to, m * 5000 + 7, 4);
    }

    for (Retransmitter *rt : {&raw, &reliable}) {
        const sim::StatGroup &st = rt->stats();
        EXPECT_EQ(rt->retransmissions(), st.get("retransmissions"));
        EXPECT_EQ(rt->duplicatesSuppressed(),
                  st.get("duplicates_suppressed"));
        EXPECT_EQ(rt->crcDiscards(), st.get("crc_discards"));
        EXPECT_EQ(rt->abandoned(), st.get("abandoned"));
        EXPECT_EQ(rt->unreachableFailures(), st.get("unreachable"));
    }
    // The storm reached every counter of the reliable engine, and the
    // raw engine's typed-unreachable path.
    EXPECT_GT(reliable.retransmissions(), 0u);
    EXPECT_GT(reliable.duplicatesSuppressed(), 0u);
    EXPECT_GT(reliable.crcDiscards(), 0u);
    EXPECT_GT(reliable.abandoned(), 0u);
    EXPECT_GT(reliable.unreachableFailures(), 0u);
    EXPECT_GT(raw.unreachableFailures(), 0u);
    EXPECT_EQ(raw.retransmissions(), 0u);
}

} // namespace
} // namespace gp::noc
