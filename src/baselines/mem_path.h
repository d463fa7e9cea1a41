/**
 * @file
 * Shared cache+TLB datapath used by the baseline scheme models.
 *
 * A virtually-addressed cache with translation performed only on a
 * miss, additive cycle accounting, and optional ASID tagging on both
 * structures. Translation is modelled as identity (vpn -> vpn): only
 * the *timing* of translation matters to the §5 comparisons, not the
 * frame numbers.
 */

#ifndef GP_BASELINES_MEM_PATH_H
#define GP_BASELINES_MEM_PATH_H

#include <cstdint>

#include "baselines/scheme.h"
#include "mem/cache.h"
#include "mem/tlb.h"

namespace gp::baselines {

/** Virtual cache + TLB with translate-on-miss semantics. */
class VirtualCachePath
{
  public:
    VirtualCachePath(const mem::CacheConfig &cache_config,
                     size_t tlb_entries, const Costs &costs,
                     unsigned page_shift = 12)
        : cache_(cache_config),
          tlb_(tlb_entries),
          costs_(costs),
          pageShift_(page_shift)
    {
    }

    /**
     * One reference. @return cycles consumed.
     * @param cache_asid ASID tag on cache lines (0 = shared lines)
     * @param tlb_asid   ASID tag on TLB entries (0 = shared entries)
     */
    uint64_t
    access(uint64_t vaddr, bool is_write, uint16_t cache_asid = 0,
           uint16_t tlb_asid = 0)
    {
        uint64_t cycles = costs_.cacheHit;
        if (cache_.probe(vaddr, cache_asid)) {
            cache_.access(vaddr, is_write, cache_asid);
            return cycles;
        }
        // Miss: translate, then fill over the external interface.
        const uint64_t vpn = vaddr >> pageShift_;
        cycles += 1; // TLB lookup on the miss path
        if (!tlb_.lookup(vpn, tlb_asid)) {
            cycles += costs_.tlbWalk;
            tlb_.insert(vpn, vpn, tlb_asid);
        }
        const mem::CacheResult cr =
            cache_.access(vaddr, is_write, cache_asid);
        cycles += costs_.extMem;
        if (cr.writeback)
            cycles += costs_.writeback;
        return cycles;
    }

    /** Purge the cache; @return cycles (writebacks dominate). */
    uint64_t
    flushCache()
    {
        const unsigned dirty = cache_.flushAll();
        return costs_.switchFixed + uint64_t(dirty) * costs_.writeback;
    }

    /** Flush all TLB entries; @return cycles. */
    uint64_t
    flushTlb()
    {
        tlb_.flushAll();
        return costs_.switchFixed;
    }

    unsigned pageShift() const { return pageShift_; }

  private:
    mem::Cache cache_;
    mem::Tlb tlb_;
    Costs costs_;
    unsigned pageShift_;
};

} // namespace gp::baselines

#endif // GP_BASELINES_MEM_PATH_H
