/**
 * @file
 * Domain-Page / PLB baseline (Koldinger et al., ASPLOS V; paper §5.1).
 *
 * A single shared address space separates protection from translation:
 * the page table and TLB are global, and an independent per-domain
 * protection table is cached in a Protection Lookaside Buffer probed in
 * parallel with the cache on *every* access. Switches are free (PLB
 * entries are domain-tagged), but the PLB is a real hardware structure
 * that must be replicated or multiported for a multi-banked cache —
 * the cost guarded pointers eliminate. The model counts PLB probes,
 * misses (protection-table walks), and capacity pressure as the number
 * of domains grows.
 */

#ifndef GP_BASELINES_DOMAIN_PAGE_SCHEME_H
#define GP_BASELINES_DOMAIN_PAGE_SCHEME_H

#include "baselines/mem_path.h"
#include "baselines/scheme.h"
#include "mem/tlb.h"

namespace gp::baselines {

/** Single address space + per-domain protection table with a PLB. */
class DomainPageScheme : public Scheme
{
  public:
    DomainPageScheme(const mem::CacheConfig &cache_config,
                     size_t tlb_entries, size_t plb_entries,
                     const Costs &costs)
        : path_(cache_config, tlb_entries, costs),
          plb_(plb_entries),
          costs_(costs)
    {
    }

    std::string_view name() const override { return "domain-page"; }

    uint64_t
    access(const sim::MemRef &ref) override
    {
        stats_.counter("refs")++;
        stats_.counter("plb_probes")++;

        // PLB probed in parallel with the (shared) virtual cache. A
        // hit adds no latency; a miss walks the domain's protection
        // table in memory.
        uint64_t cycles = 0;
        const uint64_t vpn = ref.vaddr >> path_.pageShift();
        if (!plb_.lookup(vpn, uint16_t(ref.domain + 1))) {
            cycles += costs_.plbWalk;
            stats_.counter("plb_miss_cycles") += costs_.plbWalk;
            plb_.insert(vpn, vpn, uint16_t(ref.domain + 1));
        }

        // Cache and TLB are shared across domains (single space).
        return cycles + path_.access(ref.vaddr, ref.isWrite);
    }

    uint64_t
    contextSwitch(uint32_t, uint32_t) override
    {
        // PLB entries are domain-tagged; nothing to flush.
        stats_.counter("switches")++;
        return 0;
    }

    sim::StatGroup &stats() override { return stats_; }

  private:
    VirtualCachePath path_;
    mem::Tlb plb_; //!< reused TLB structure as the PLB
    Costs costs_;
    sim::StatGroup stats_{"domain_page"};
};

} // namespace gp::baselines

#endif // GP_BASELINES_DOMAIN_PAGE_SCHEME_H
