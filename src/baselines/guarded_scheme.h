/**
 * @file
 * Guarded-pointer scheme model (the paper's proposal).
 *
 * All domains share one virtual space: cache lines and TLB entries are
 * untagged and shared. The permission check happens in the execution
 * unit from the pointer itself in parallel with issue, so it adds zero
 * cycles and zero table state, and a protection-domain switch costs
 * exactly nothing.
 */

#ifndef GP_BASELINES_GUARDED_SCHEME_H
#define GP_BASELINES_GUARDED_SCHEME_H

#include "baselines/mem_path.h"
#include "baselines/scheme.h"

namespace gp::baselines {

/** The paper's scheme: single space, check-in-pointer, 0-cycle switch. */
class GuardedScheme : public Scheme
{
  public:
    GuardedScheme(const mem::CacheConfig &cache_config,
                  size_t tlb_entries, const Costs &costs)
        : path_(cache_config, tlb_entries, costs)
    {
    }

    std::string_view name() const override { return "guarded-ptr"; }

    uint64_t
    access(const sim::MemRef &ref) override
    {
        // Permission + bounds check: in-pointer, pre-issue, 0 cycles.
        stats_.counter("refs")++;
        return path_.access(ref.vaddr, ref.isWrite);
    }

    uint64_t
    contextSwitch(uint32_t, uint32_t) override
    {
        // No translation or protection state is per-process: switching
        // threads from different domains touches nothing.
        stats_.counter("switches")++;
        return 0;
    }

    sim::StatGroup &stats() override { return stats_; }

  private:
    VirtualCachePath path_;
    sim::StatGroup stats_{"guarded"};
};

} // namespace gp::baselines

#endif // GP_BASELINES_GUARDED_SCHEME_H
