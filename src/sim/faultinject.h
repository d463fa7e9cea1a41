/**
 * @file
 * Deterministic fault-injection engine.
 *
 * The ISSUE-4 robustness campaign needs reproducible hardware-fault
 * scenarios: stored-bit flips in tagged memory (data, tag, or the
 * permission/length field of a guarded pointer), cache-line bursts,
 * LTLB entry corruption and spurious invalidation, transient
 * page-walk failures, and NoC message drop/duplicate/delay/corrupt.
 * The ISSUE-9 mesh-resilience arm adds two fail-stop sites —
 * NodeFailStop and LinkDown — fired once per epoch by the sharded
 * engine's barrier thread (see noc::ShardedMesh::applyMeshFaults),
 * so mesh-scale failures stay deterministic across host threads.
 *
 * Design rules:
 *
 *  - **Deterministic per seed.** Every fault site owns a private
 *    xoshiro256** stream derived from the master seed, so the draw
 *    sequence at one site is independent of activity at any other.
 *    The simulator is single-threaded, so the per-site opportunity
 *    order (and therefore the whole campaign outcome) is a pure
 *    function of (seed, workload, config).
 *
 *  - **Zero overhead when disarmed.** The only cost on the hot path
 *    is `FaultInjector::armed()` — a single inline static bool test,
 *    the same pattern the tracing layer uses. No cycle accounting,
 *    no RNG draws, no virtual calls when off. Components must guard
 *    every injection point with `if (FaultInjector::armed())`.
 *
 *  - **Pull + push sites.** Most sites are *pull* style: the
 *    component owning the state calls `fire(site)` at each natural
 *    opportunity (a memory read, a TLB fill, a NoC hop) and applies
 *    the corruption itself using detail draws from `rng(site)`.
 *    State that has no convenient opportunity point (e.g. resident
 *    words of a tagged memory) is covered by *tick targets*: hooks
 *    registered by the campaign wiring and invoked from
 *    `tick()` once per machine cycle when the site's Bernoulli
 *    draw fires. The sim layer never includes mem/noc headers; the
 *    hooks close over whatever component they corrupt.
 *
 * The injector is a process-wide singleton (like TraceManager and
 * the stats registry) because fault sites are scattered across
 * layers that share no common plumbing object.
 */

#ifndef GP_SIM_FAULTINJECT_H
#define GP_SIM_FAULTINJECT_H

#include <cstdint>
#include <functional>
#include <string_view>

#include "sim/rng.h"
#include "sim/stats.h"

namespace gp::sim {

/** Where a fault strikes. One RNG stream and one rate knob each. */
enum class FaultSite : uint8_t
{
    MemDataBit = 0,  //!< flip one payload bit of a stored word
    MemTagBit,       //!< flip the out-of-band tag bit of a stored word
    MemPermField,    //!< flip a perm/seg-length bit of a stored capability
    CacheLineBurst,  //!< multi-bit burst across one cache line
    TlbCorrupt,      //!< corrupt one live LTLB entry's frame/perms
    TlbInvalidate,   //!< spuriously drop one live LTLB entry
    PtWalkTransient, //!< transient page-walk failure (retryable)
    NocDrop,         //!< NoC message silently dropped
    NocDuplicate,    //!< NoC message delivered twice
    NocDelay,        //!< NoC message delayed by a drawn cycle count
    NocCorrupt,      //!< NoC message payload bit flipped in flight
    NodeFailStop,    //!< fail-stop death of one mesh node (permanent)
    LinkDown,        //!< one mesh link goes down (permanent)
    Count,
};

inline constexpr unsigned kFaultSiteCount =
    static_cast<unsigned>(FaultSite::Count);

/** @return stable lower-case site name (stat/CLI/JSON key). */
constexpr std::string_view
faultSiteName(FaultSite s)
{
    switch (s) {
      case FaultSite::MemDataBit:
        return "mem-data-bit";
      case FaultSite::MemTagBit:
        return "mem-tag-bit";
      case FaultSite::MemPermField:
        return "mem-perm-field";
      case FaultSite::CacheLineBurst:
        return "cache-line-burst";
      case FaultSite::TlbCorrupt:
        return "tlb-corrupt";
      case FaultSite::TlbInvalidate:
        return "tlb-invalidate";
      case FaultSite::PtWalkTransient:
        return "ptwalk-transient";
      case FaultSite::NocDrop:
        return "noc-drop";
      case FaultSite::NocDuplicate:
        return "noc-duplicate";
      case FaultSite::NocDelay:
        return "noc-delay";
      case FaultSite::NocCorrupt:
        return "noc-corrupt";
      case FaultSite::NodeFailStop:
        return "node-fail-stop";
      case FaultSite::LinkDown:
        return "link-down";
      default:
        return "unknown";
    }
}

/** @return the FaultSite named @p name, or Count when unknown. */
FaultSite faultSiteFromName(std::string_view name);

/** Campaign-level injector configuration. */
struct FaultConfig
{
    /** Master seed; every per-site stream derives from it. */
    uint64_t seed = 1;

    /**
     * Per-opportunity Bernoulli probability for each site. 0 keeps a
     * site silent. For tick-target sites the opportunity is one
     * machine cycle; for pull sites it is one component event.
     */
    double rate[kFaultSiteCount] = {};

    /** Maximum burst length for CacheLineBurst flips, in bits. */
    uint64_t burstMaxBits = 4;
};

/**
 * Process-wide deterministic fault injector.
 *
 * Lifecycle: `arm(config)` resets every stream and counter and turns
 * the static `armed()` flag on; `disarm()` turns it off and clears
 * tick targets. Components never observe a half-configured injector.
 */
class FaultInjector
{
  public:
    /** Hook invoked from tick() when the site's draw fires.
     * @return true when it struck state: only that counts as an
     * injection (a TLB upset on an empty TLB changes nothing). */
    using TickHook = std::function<bool(Rng &)>;

    static FaultInjector &instance();

    /** @return true when a campaign is active (inline fast path). */
    static bool armed() { return armed_; }

    /** Reset all streams/counters from @p cfg and enable injection. */
    void arm(const FaultConfig &cfg);

    /** Disable injection and drop all registered tick targets. */
    void disarm();

    /** Active configuration (meaningful only while armed). */
    const FaultConfig &config() const { return cfg_; }

    /**
     * One Bernoulli opportunity at @p site. Draws from the site's
     * private stream; counts fired injections in the stats group.
     * Always false when disarmed or the site rate is zero — but note
     * a zero-rate site still burns one draw per call while armed, so
     * outcome streams do not depend on *other* sites' rates.
     */
    bool
    fire(FaultSite site)
    {
        if (!armed_)
            return false;
        const auto i = static_cast<unsigned>(site);
        if (!draw(i))
            return false;
        countFired(i);
        return true;
    }

    /**
     * Detail draw in [0, bound) from @p site's stream, for picking
     * the victim bit, delay length, entry index, etc. Keeping detail
     * draws on the same stream as the Bernoulli draw preserves
     * per-site determinism.
     */
    uint64_t drawBelow(FaultSite site, uint64_t bound);

    /**
     * Register the corruption hook for a tick-scheduled site. The
     * hook is invoked from tick() with the site's stream whenever
     * the site's Bernoulli draw fires, and the firing counts as an
     * injection only when the hook reports it struck something.
     * Replaces any previous hook.
     */
    void setTickTarget(FaultSite site, TickHook hook);

    /** Drop every registered tick target. */
    void clearTickTargets();

    /**
     * One machine cycle: give every tick-target site one Bernoulli
     * opportunity, in ascending site order. Called once per cycle by
     * Machine::run() or the mesh's epoch barrier under an armed()
     * guard, so the disarmed cost is the flag test alone; a site
     * without a hook costs nothing.
     */
    void
    tick()
    {
        if (!armed_)
            return;
        for (unsigned k = 0; k < tickCount_; ++k) {
            const unsigned i = tickSites_[k];
            if (draw(i) && hooks_[i](streams_[i]))
                countFired(i);
        }
    }

    /** Injections fired at @p site since arm() (its "fired.<site>"
     * counter; 0 while it has never fired). */
    uint64_t injected(FaultSite site) const;

    /** Total injections fired since arm(). */
    uint64_t injectedTotal() const;

    /** The "faultinject" stat group (per-site fired counters). */
    StatGroup &stats() { return stats_; }

  private:
    FaultInjector();

    /** The Bernoulli draw of site @p i's opportunity. */
    bool
    draw(unsigned i)
    {
        // Burn exactly one draw per opportunity regardless of rate,
        // so a site's stream position depends only on its own
        // opportunity count — rates can vary across campaign arms
        // without shifting the victim-selection draws.
        return streams_[i].uniform() < cfg_.rate[i];
    }

    /** Count one fired injection at site @p i (the rare path). */
    void countFired(unsigned i);

    inline static bool armed_ = false;

    FaultConfig cfg_{};
    Rng streams_[kFaultSiteCount];
    TickHook hooks_[kFaultSiteCount];
    /** The sites with a hook, ascending: what tick() visits. */
    uint8_t tickSites_[kFaultSiteCount] = {};
    unsigned tickCount_ = 0;
    StatGroup stats_{"faultinject"};
    /** Each site's "fired.<site>" counter, registered on its first
     * fire so the exported set names only sites that fired; the one
     * count of each site's injections. */
    Counter *firedCounters_[kFaultSiteCount] = {};
};

} // namespace gp::sim

#endif // GP_SIM_FAULTINJECT_H
