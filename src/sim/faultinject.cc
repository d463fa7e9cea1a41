#include "sim/faultinject.h"

#include <string>

namespace gp::sim {

FaultSite
faultSiteFromName(std::string_view name)
{
    for (unsigned i = 0; i < kFaultSiteCount; ++i) {
        const auto s = static_cast<FaultSite>(i);
        if (faultSiteName(s) == name)
            return s;
    }
    return FaultSite::Count;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::FaultInjector() = default;

void
FaultInjector::arm(const FaultConfig &cfg)
{
    // Hooks from a previous campaign close over dead components;
    // drop them before anything can fire.
    clearTickTargets();
    cfg_ = cfg;
    for (unsigned i = 0; i < kFaultSiteCount; ++i) {
        // Per-site streams: master seed mixed with a site-dependent
        // constant, so each site's draw sequence is independent of
        // every other site's opportunity count.
        streams_[i] = Rng(deriveSeed(cfg.seed, i));
    }
    stats_.resetAll();
    armed_ = true;
}

void
FaultInjector::disarm()
{
    armed_ = false;
    clearTickTargets();
}

void
FaultInjector::countFired(unsigned i)
{
    if (!firedCounters_[i])
        firedCounters_[i] = &stats_.counter(
            "fired." + std::string(faultSiteName(FaultSite(i))));
    (*firedCounters_[i])++;
}

uint64_t
FaultInjector::drawBelow(FaultSite site, uint64_t bound)
{
    return streams_[static_cast<unsigned>(site)].below(bound);
}

void
FaultInjector::setTickTarget(FaultSite site, TickHook hook)
{
    hooks_[static_cast<unsigned>(site)] = std::move(hook);
    tickCount_ = 0;
    for (unsigned i = 0; i < kFaultSiteCount; ++i)
        if (hooks_[i])
            tickSites_[tickCount_++] = uint8_t(i);
}

void
FaultInjector::clearTickTargets()
{
    for (auto &hook : hooks_)
        hook = nullptr;
    tickCount_ = 0;
}

uint64_t
FaultInjector::injected(FaultSite site) const
{
    const Counter *c = firedCounters_[static_cast<unsigned>(site)];
    return c ? c->value() : 0;
}

uint64_t
FaultInjector::injectedTotal() const
{
    uint64_t total = 0;
    for (const Counter *c : firedCounters_)
        total += c ? c->value() : 0;
    return total;
}

} // namespace gp::sim
