/**
 * @file
 * Tests for the deterministic fault injector (ISSUE 4 tentpole).
 *
 * The injector's contract: the full sequence of fault decisions is a
 * pure function of the armed seed; per-site streams are independent;
 * one opportunity burns exactly one draw regardless of rate (so
 * victim-selection draws do not shift between campaign arms that
 * only differ in rates); and a disarmed injector fires nothing.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "sim/faultinject.h"

namespace gp::sim {
namespace {

class FaultInjectTest : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(FaultInjectTest, DisarmedNeverFires)
{
    auto &inj = FaultInjector::instance();
    ASSERT_FALSE(FaultInjector::armed());
    // The injector is process-wide; another suite may have armed it
    // earlier, so assert on the *delta*, not the absolute count.
    const uint64_t before = inj.injectedTotal();
    for (unsigned i = 0; i < 1000; ++i)
        EXPECT_FALSE(inj.fire(FaultSite::MemDataBit));
    EXPECT_EQ(inj.injectedTotal(), before);
}

TEST_F(FaultInjectTest, SameSeedSameDecisions)
{
    auto &inj = FaultInjector::instance();
    FaultConfig fc;
    fc.seed = 1234;
    fc.rate[unsigned(FaultSite::MemDataBit)] = 0.05;
    fc.rate[unsigned(FaultSite::TlbCorrupt)] = 0.01;

    auto runOnce = [&]() {
        std::vector<uint64_t> log;
        inj.arm(fc);
        for (unsigned i = 0; i < 5000; ++i) {
            if (inj.fire(FaultSite::MemDataBit))
                log.push_back(inj.drawBelow(FaultSite::MemDataBit,
                                            64));
            if (inj.fire(FaultSite::TlbCorrupt))
                log.push_back(1000 +
                              inj.drawBelow(FaultSite::TlbCorrupt,
                                            16));
        }
        log.push_back(inj.injectedTotal());
        inj.disarm();
        return log;
    };

    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "same seed must give bit-identical decisions";
}

TEST_F(FaultInjectTest, DifferentSeedsDiffer)
{
    auto &inj = FaultInjector::instance();
    FaultConfig fc;
    fc.rate[unsigned(FaultSite::MemDataBit)] = 0.05;

    auto pattern = [&](uint64_t seed) {
        fc.seed = seed;
        inj.arm(fc);
        std::vector<bool> fires;
        for (unsigned i = 0; i < 2000; ++i)
            fires.push_back(inj.fire(FaultSite::MemDataBit));
        inj.disarm();
        return fires;
    };
    EXPECT_NE(pattern(1), pattern(2));
}

TEST_F(FaultInjectTest, StreamPositionIndependentOfOtherSitesRates)
{
    // Victim draws at site A must not move when site B's rate
    // changes: each site owns a private stream.
    auto &inj = FaultInjector::instance();

    auto draws = [&](double rateB) {
        FaultConfig fc;
        fc.seed = 99;
        fc.rate[unsigned(FaultSite::MemDataBit)] = 1.0;
        fc.rate[unsigned(FaultSite::MemTagBit)] = rateB;
        inj.arm(fc);
        std::vector<uint64_t> v;
        for (unsigned i = 0; i < 100; ++i) {
            inj.fire(FaultSite::MemTagBit); // interleaved traffic
            EXPECT_TRUE(inj.fire(FaultSite::MemDataBit));
            v.push_back(inj.drawBelow(FaultSite::MemDataBit, 1u << 20));
        }
        inj.disarm();
        return v;
    };
    EXPECT_EQ(draws(0.0), draws(0.9));
}

TEST_F(FaultInjectTest, RateChangesDoNotShiftOwnVictimDraws)
{
    // fire() burns exactly one uniform per opportunity whether or
    // not it hits, so the *sequence of victim draws interleaved with
    // opportunities* stays aligned across rates. Verify by checking
    // a rate-1.0 arm and a rate-0.5 arm agree on the draw value at
    // each opportunity index where both fired.
    auto &inj = FaultInjector::instance();
    const unsigned kOpp = 200;

    auto firesAndDraws = [&](double rate) {
        FaultConfig fc;
        fc.seed = 7;
        fc.rate[unsigned(FaultSite::CacheLineBurst)] = rate;
        inj.arm(fc);
        std::vector<std::pair<bool, uint64_t>> v;
        for (unsigned i = 0; i < kOpp; ++i) {
            const bool hit = inj.fire(FaultSite::CacheLineBurst);
            // The draw consumes stream state only when we take it,
            // so sample it through a copy-free probe: take the draw
            // only on a hit, like real sites do.
            v.emplace_back(
                hit, hit ? inj.drawBelow(FaultSite::CacheLineBurst,
                                         1u << 16)
                         : 0);
        }
        inj.disarm();
        return v;
    };

    const auto full = firesAndDraws(1.0);
    const auto half = firesAndDraws(0.5);
    unsigned bothFired = 0;
    for (unsigned i = 0; i < kOpp; ++i) {
        if (half[i].first) {
            ASSERT_TRUE(full[i].first);
            bothFired++;
        }
    }
    EXPECT_GT(bothFired, 0u);
}

TEST_F(FaultInjectTest, ZeroRateSiteNeverFiresWhileOthersDo)
{
    auto &inj = FaultInjector::instance();
    FaultConfig fc;
    fc.seed = 5;
    fc.rate[unsigned(FaultSite::MemDataBit)] = 1.0;
    inj.arm(fc);
    for (unsigned i = 0; i < 100; ++i) {
        EXPECT_TRUE(inj.fire(FaultSite::MemDataBit));
        EXPECT_FALSE(inj.fire(FaultSite::NocDrop));
    }
    EXPECT_EQ(inj.injected(FaultSite::MemDataBit), 100u);
    EXPECT_EQ(inj.injected(FaultSite::NocDrop), 0u);
}

TEST_F(FaultInjectTest, TickInvokesOnlyRegisteredHooks)
{
    auto &inj = FaultInjector::instance();
    FaultConfig fc;
    fc.seed = 11;
    fc.rate[unsigned(FaultSite::TlbCorrupt)] = 1.0;
    fc.rate[unsigned(FaultSite::TlbInvalidate)] = 1.0;
    inj.arm(fc);

    unsigned calls = 0;
    inj.setTickTarget(FaultSite::TlbCorrupt, [&calls](Rng &) {
        calls++;
        return true;
    });
    for (unsigned i = 0; i < 10; ++i)
        inj.tick();
    EXPECT_EQ(calls, 10u);
    // TlbInvalidate had rate 1.0 but no hook: nothing fired for it
    // through tick().
    EXPECT_EQ(inj.injected(FaultSite::TlbInvalidate), 0u);

    // Re-arming clears stale hooks (they may close over dead state).
    inj.arm(fc);
    for (unsigned i = 0; i < 10; ++i)
        inj.tick();
    EXPECT_EQ(calls, 10u);
}

TEST_F(FaultInjectTest, TickCountsOnlyFiringsThatStruck)
{
    // A tick target that finds nothing to strike (an empty TLB, no
    // resident word) changed no state: the firing is not an
    // injection. Its draws still happen, so the stream is the same.
    auto &inj = FaultInjector::instance();
    FaultConfig fc;
    fc.seed = 3;
    fc.rate[unsigned(FaultSite::TlbInvalidate)] = 1.0;
    inj.arm(fc);
    unsigned calls = 0;
    inj.setTickTarget(FaultSite::TlbInvalidate, [&calls](Rng &) {
        return ++calls % 3 == 0;
    });
    for (unsigned i = 0; i < 30; ++i)
        inj.tick();
    EXPECT_EQ(calls, 30u);
    EXPECT_EQ(inj.injected(FaultSite::TlbInvalidate), 10u);
    EXPECT_EQ(inj.injectedTotal(), 10u);

    inj.arm(fc);
    inj.setTickTarget(FaultSite::TlbInvalidate,
                      [](Rng &) { return false; });
    for (unsigned i = 0; i < 30; ++i)
        inj.tick();
    EXPECT_EQ(inj.injected(FaultSite::TlbInvalidate), 0u);
}

TEST_F(FaultInjectTest, TickVisitsHookedSitesInAscendingOrder)
{
    // tick() walks only the sites that have a hook. Whatever order
    // hooks are registered or replaced in, it must fire exactly what
    // one fire() per hooked site, in ascending site order, fires —
    // and hand each hook its own site's stream.
    auto &inj = FaultInjector::instance();
    FaultConfig fc;
    fc.seed = 2024;
    for (unsigned i = 0; i < kFaultSiteCount; ++i)
        fc.rate[i] = 0.05 + 0.05 * (i % 5);
    constexpr uint64_t kCycles = 400;

    using Event = std::tuple<uint64_t, unsigned, uint64_t>;
    std::vector<Event> got;
    uint64_t cycle = 0;
    auto hook = [&got, &cycle](FaultSite site) {
        return [&got, &cycle, site](Rng &rng) {
            got.emplace_back(cycle, unsigned(site), rng.below(1000));
            return true;
        };
    };
    auto reference = [&](const std::vector<FaultSite> &sites) {
        inj.arm(fc);
        std::vector<Event> want;
        for (uint64_t c = 1; c <= kCycles; ++c)
            for (unsigned i = 0; i < kFaultSiteCount; ++i)
                for (FaultSite s : sites)
                    if (unsigned(s) == i && inj.fire(s))
                        want.emplace_back(c, i, inj.drawBelow(s, 1000));
        return want;
    };
    auto ticked = [&] {
        got.clear();
        for (cycle = 1; cycle <= kCycles; ++cycle)
            inj.tick();
        return got;
    };

    const std::vector<FaultSite> first = {
        FaultSite::LinkDown, FaultSite::NocDelay,
        FaultSite::PtWalkTransient, FaultSite::TlbCorrupt,
        FaultSite::MemPermField, FaultSite::MemDataBit};
    inj.arm(fc);
    for (FaultSite s : first) // descending registration
        inj.setTickTarget(s, hook(s));
    inj.setTickTarget(FaultSite::TlbCorrupt, hook(FaultSite::TlbCorrupt));
    const std::vector<Event> a = ticked();
    EXPECT_FALSE(a.empty());
    for (FaultSite s : first)
        EXPECT_EQ(inj.stats().get("fired." +
                                  std::string(faultSiteName(s))),
                  inj.injected(s));
    EXPECT_EQ(a, reference(first));

    // Re-arming drops every hook; a new, smaller set starts afresh.
    const std::vector<FaultSite> second = {FaultSite::NocCorrupt,
                                           FaultSite::MemTagBit};
    inj.arm(fc);
    EXPECT_TRUE(ticked().empty());
    inj.arm(fc);
    for (FaultSite s : second)
        inj.setTickTarget(s, hook(s));
    const std::vector<Event> b = ticked();
    EXPECT_FALSE(b.empty());
    EXPECT_EQ(inj.stats().get("fired.mem-tag-bit"),
              inj.injected(FaultSite::MemTagBit));
    EXPECT_EQ(b, reference(second));

    // A hook set to empty leaves the list; clearing leaves nothing.
    inj.arm(fc);
    for (FaultSite s : second)
        inj.setTickTarget(s, hook(s));
    inj.setTickTarget(FaultSite::NocCorrupt, nullptr);
    const std::vector<Event> c = ticked();
    EXPECT_EQ(c, reference({FaultSite::MemTagBit}));
    inj.clearTickTargets();
    EXPECT_TRUE(ticked().empty());
}

TEST_F(FaultInjectTest, SiteNamesRoundTrip)
{
    for (unsigned i = 0; i < kFaultSiteCount; ++i) {
        const auto site = static_cast<FaultSite>(i);
        EXPECT_EQ(faultSiteFromName(faultSiteName(site)), site);
    }
    EXPECT_EQ(faultSiteFromName("no-such-site"), FaultSite::Count);
}

} // namespace
} // namespace gp::sim
