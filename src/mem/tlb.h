/**
 * @file
 * Translation lookaside buffer.
 *
 * In the guarded-pointer system a single LTLB is consulted only on
 * cache misses and holds global (ASID-free) entries. The same structure
 * is reused by the §5 baseline schemes, which variously need ASID
 * tagging (to avoid flushes) or full flushes on every protection-domain
 * switch; both behaviours are provided so the context-switch benches
 * compare schemes over identical hardware.
 */

#ifndef GP_MEM_TLB_H
#define GP_MEM_TLB_H

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "sim/rng.h"
#include "sim/stats.h"

namespace gp::mem {

/** Fully-associative LRU TLB with optional ASID tagging. */
class Tlb
{
  public:
    /** @param entries capacity; 0 is rejected. */
    explicit Tlb(size_t entries = 64);

    /**
     * Look up a translation.
     * @param vpn virtual page number
     * @param asid address-space id (0 for the shared global space)
     * @return the physical frame number on hit.
     */
    std::optional<uint64_t> lookup(uint64_t vpn, uint16_t asid = 0);

    /** Install a translation, evicting LRU if full. */
    void insert(uint64_t vpn, uint64_t pfn, uint16_t asid = 0);

    /** Remove one translation if present (page unmap). */
    void invalidate(uint64_t vpn, uint16_t asid = 0);

    /** Flush everything (paged baseline without ASIDs). */
    void flushAll();

    /** Flush entries belonging to one address space. */
    void flushAsid(uint16_t asid);

    // ---- fault-injection hooks (ISSUE 4) -------------------------

    /**
     * Corrupt one uniformly chosen live entry: XOR a random bit
     * (drawn from @p rng) into its cached frame number, modelling a
     * soft error in the LTLB array. Subsequent hits on that entry
     * translate to the wrong frame until it is evicted/invalidated.
     * @return false when the TLB is empty (nothing to corrupt).
     */
    bool corruptRandom(sim::Rng &rng);

    /**
     * Spuriously drop one uniformly chosen live entry (a lost
     * translation, forcing an extra walk — a timing fault only).
     * @return false when the TLB is empty.
     */
    bool invalidateRandom(sim::Rng &rng);

    size_t size() const { return map_.size(); }

    sim::StatGroup &stats() { return stats_; }

  private:
    struct Key
    {
        uint64_t vpn;
        uint16_t asid;
        bool
        operator==(const Key &o) const
        {
            return vpn == o.vpn && asid == o.asid;
        }
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            return std::hash<uint64_t>()(k.vpn * 0x9e3779b97f4a7c15ull ^
                                         k.asid);
        }
    };

    struct Entry
    {
        Key key;
        uint64_t pfn;
    };

    using LruList = std::list<Entry>;

    size_t capacity_;
    LruList lru_; // front = most recent
    std::unordered_map<Key, LruList::iterator, KeyHash> map_;
    sim::StatGroup stats_{"tlb"};

    // Cached stat handles: lookup/insert/invalidate run on the
    // memory-system miss path, so they must never pay a string-keyed
    // map lookup per event (docs/OBSERVABILITY.md).
    sim::Counter *hits_ = nullptr;
    sim::Counter *misses_ = nullptr;
    sim::Counter *evictions_ = nullptr;
    sim::Counter *invalidations_ = nullptr;
    sim::Counter *fullFlushes_ = nullptr;
    sim::Counter *asidFlushes_ = nullptr;
    sim::Counter *entriesFlushed_ = nullptr;
};

} // namespace gp::mem

#endif // GP_MEM_TLB_H
