/**
 * @file
 * Banked, virtually-addressed, virtually-tagged cache.
 *
 * Models the MAP chip's on-chip cache (Fig. 5): the array is interleaved
 * across banks by low line-address bits so the four clusters can access
 * distinct banks in the same cycle; lines are tagged with virtual
 * addresses so no translation happens on a hit: each line records the
 * physical frame its filler passed, and a hit returns it.
 *
 * Lines optionally carry an ASID so the §5.1 baselines can demonstrate
 * why ASID-tagged virtual caches cannot share data in-cache (synonyms):
 * the same virtual line referenced from two address spaces occupies two
 * lines. The guarded-pointer configuration always uses ASID 0.
 */

#ifndef GP_MEM_CACHE_H
#define GP_MEM_CACHE_H

#include <cstdint>

#include "sim/stats.h"
#include "sim/zeroed_array.h"

namespace gp::mem {

/** Geometry and behaviour knobs for the cache. */
struct CacheConfig
{
    unsigned banks = 4;       //!< interleave factor (power of two)
    unsigned lineBytes = 32;  //!< line size (power of two)
    unsigned setsPerBank = 512; //!< sets in each bank (power of two)
    unsigned ways = 2;        //!< associativity
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    bool writeback = false;    //!< a dirty victim was evicted
    uint64_t victimLineAddr = 0; //!< line address of the victim
    /**
     * Address space the victim line belonged to. A victim writeback
     * must be attributed (and, in ASID-tagged baselines, translated)
     * against the *victim's* address space, not the accessing
     * thread's — the two differ whenever a miss in one domain evicts
     * another domain's line.
     */
    uint16_t victimAsid = 0;
};

/** Outcome of invalidating one page's worth of lines. */
struct PageInvalidation
{
    unsigned invalidated = 0; //!< lines removed from the array
    /**
     * Of those, dirty lines whose contents must be written back
     * before the page translation disappears. Dropping these on the
     * floor would be silent data loss on revocation/relocation.
     */
    unsigned writebacks = 0;
};

/** Set-associative banked cache with per-set LRU and write-back. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** @return which bank services the given byte address. Inline:
     * the timed hit path computes this once per access. */
    unsigned
    bankOf(uint64_t vaddr) const
    {
        return (vaddr >> lineShift_) & (config_.banks - 1);
    }

    /**
     * Perform one access: on hit, update LRU (and dirty on writes); on
     * miss, choose a victim, install the line with @p frame as its
     * physical frame, and report any dirty writeback. Purely
     * behavioural — data lives in TaggedMemory.
     */
    CacheResult access(uint64_t vaddr, bool is_write, uint16_t asid = 0,
                       uint64_t frame = 0);

    /**
     * Hot-path hit probe+update in one tag search (ASID 0, the
     * guarded configuration's): if the line is resident, perform
     * exactly the hit half of access() (LRU stamp, dirty bit, hit
     * counter), set @p frame to the frame recorded when the line was
     * filled, and return true; otherwise change
     * nothing — no install, no stamp advance, no miss counted — and
     * return false. Equivalent to `probe() && access().hit` at half
     * the tag-search cost; the caller runs access() afterwards for
     * the fill if (and only if) the miss path succeeds.
     */
    bool accessHit(uint64_t vaddr, bool is_write, uint64_t &frame);

    /** accessHit() for a caller that does not need the frame. */
    bool
    accessHit(uint64_t vaddr, bool is_write)
    {
        uint64_t frame;
        return accessHit(vaddr, is_write, frame);
    }

    /** @return true if the line holding vaddr is resident (no LRU touch). */
    bool probe(uint64_t vaddr, uint16_t asid = 0) const;

    /**
     * Invalidate every line within a virtual page (used when the page
     * is unmapped for revocation/relocation, §4.3). Dirty lines are
     * reported as writebacks for the caller to charge/propagate —
     * they are never silently discarded.
     * @param page_shift log2(page size); must be >= log2(line size).
     */
    PageInvalidation invalidatePage(uint64_t vaddr, unsigned page_shift,
                                    uint16_t asid = 0);

    /**
     * Invalidate the whole cache (the paged-baseline context switch).
     * @return number of dirty lines that needed writeback.
     */
    unsigned flushAll();

    /** Total data capacity in bytes. */
    uint64_t capacityBytes() const;

    sim::StatGroup &stats() { return stats_; }

  private:
    /// 32 bytes, and all zero bytes is an invalid line. MemConfig's
    /// default 4096 lines span 128 KiB; in a sim::ZeroedArray a cache
    /// holds only the pages its fills wrote.
    struct Line
    {
        uint64_t lineAddr = 0; //!< vaddr >> log2(lineBytes)
        uint64_t lruStamp = 0;
        uint64_t frame = 0;    //!< physical frame passed at fill
        uint16_t asid = 0;
        bool valid = false;
        bool dirty = false;
    };
    static_assert(sizeof(Line) == 32, "keep a cache line 32 bytes");

    /** Map a byte address to (bank, set, lineAddr). */
    void locate(uint64_t vaddr, unsigned &bank, unsigned &set,
                uint64_t &line_addr) const;

    Line *findLine(unsigned bank, unsigned set, uint64_t line_addr,
                   uint16_t asid);
    const Line *findLine(unsigned bank, unsigned set, uint64_t line_addr,
                         uint16_t asid) const;

    CacheConfig config_;
    unsigned lineShift_;
    unsigned bankShift_;
    /// [bank][set][way] flattened. Only access()'s install writes an
    /// invalid line, so it alone marks chunks; every other write
    /// touches a valid line, which lies in a marked chunk.
    sim::ZeroedArray<Line> lines_;
    uint64_t stamp_ = 0;
    sim::StatGroup stats_{"cache"};

    // Cached stat handles (stable for the life of stats_), so the
    // per-access hot path pays a plain increment, never a
    // string-keyed map lookup. See docs/OBSERVABILITY.md ("stat
    // handles"): never call counter("...") in a per-event path.
    sim::Counter *hits_ = nullptr;
    sim::Counter *misses_ = nullptr;
    sim::Counter *writebacks_ = nullptr;
    sim::Counter *pageInvalidations_ = nullptr;
    sim::Counter *linesInvalidated_ = nullptr;
    sim::Counter *invalidationWritebacks_ = nullptr;
    sim::Counter *fullFlushes_ = nullptr;
    sim::Counter *flushWritebacks_ = nullptr;
};

} // namespace gp::mem

#endif // GP_MEM_CACHE_H
