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
        fired_[i] = 0;
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

bool
FaultInjector::fire(FaultSite site)
{
    if (!armed_)
        return false;
    const auto i = static_cast<unsigned>(site);
    const double rate = cfg_.rate[i];
    // Burn exactly one draw per opportunity regardless of rate, so a
    // site's stream position depends only on its own opportunity
    // count — rates can vary across campaign arms without shifting
    // the victim-selection draws.
    const bool hit = streams_[i].uniform() < rate;
    if (hit) {
        fired_[i]++;
        stats_.counter(std::string("fired.") +
                       std::string(faultSiteName(site)))++;
    }
    return hit;
}

uint64_t
FaultInjector::drawBelow(FaultSite site, uint64_t bound)
{
    return streams_[static_cast<unsigned>(site)].below(bound);
}

Rng &
FaultInjector::rng(FaultSite site)
{
    return streams_[static_cast<unsigned>(site)];
}

void
FaultInjector::setTickTarget(FaultSite site, TickHook hook)
{
    hooks_[static_cast<unsigned>(site)] = std::move(hook);
}

void
FaultInjector::clearTickTargets()
{
    for (auto &hook : hooks_)
        hook = nullptr;
}

void
FaultInjector::tick(uint64_t cycle)
{
    (void)cycle;
    if (!armed_)
        return;
    for (unsigned i = 0; i < kFaultSiteCount; ++i) {
        if (!hooks_[i])
            continue;
        const auto site = static_cast<FaultSite>(i);
        if (fire(site))
            hooks_[i](streams_[i]);
    }
}

uint64_t
FaultInjector::injected(FaultSite site) const
{
    return fired_[static_cast<unsigned>(site)];
}

uint64_t
FaultInjector::injectedTotal() const
{
    uint64_t total = 0;
    for (const auto f : fired_)
        total += f;
    return total;
}

} // namespace gp::sim
