/**
 * @file
 * The guarded-pointer memory system façade.
 *
 * Ties together the banked virtually-addressed cache, the global LTLB
 * and page table, and tagged physical memory, and implements the access
 * sequence of the paper:
 *
 *   1. the permission/bounds check happens before issue, from the
 *      pointer alone, costing no table lookups (§2.2);
 *   2. the cache is probed with the *virtual* address (§3);
 *   3. translation is performed only on a cache miss (§3, §4.1).
 *
 * Timing is cycle-approximate and models the two contention points of
 * the MAP memory system: the per-bank port (one access per cycle per
 * bank) and the single external memory interface.
 */

#ifndef GP_MEM_MEMORY_SYSTEM_H
#define GP_MEM_MEMORY_SYSTEM_H

#include <cstdint>

#include "gp/ops.h"
#include "gp/word.h"
#include "mem/cache.h"
#include "mem/ecc.h"
#include "mem/memory_port.h"
#include "mem/page_table.h"
#include "mem/tagged_memory.h"
#include "mem/tlb.h"
#include "sim/stats.h"

namespace gp::mem {

/** Cycle costs of the memory-system components. */
struct MemTiming
{
    uint64_t cacheHit = 1;     //!< bank access (hit or miss probe)
    uint64_t tlbLookup = 1;    //!< LTLB lookup on the miss path
    uint64_t ptWalk = 20;      //!< page-table walk on LTLB miss
    uint64_t extMemAccess = 8; //!< line fill over the external interface
    uint64_t writeback = 4;    //!< dirty-victim writeback on the same port
};

/** Full configuration of a memory system instance. */
struct MemConfig
{
    CacheConfig cache;
    size_t tlbEntries = 64;
    uint64_t pageBytes = 4096;
    MemTiming timing;

    /** Hardening code over every stored 65-bit word (off by default
     * so baseline timing/storage is unchanged). */
    EccMode ecc = EccMode::None;
    /** Extra page-walk attempts after a transient walk failure; 0
     * means a transient failure is immediately uncorrectable. */
    unsigned walkRetries = 0;
};

/** Outcome of a timed memory access. */
struct MemAccess
{
    Fault fault = Fault::None;
    bool cacheHit = false;
    /** The access will never complete (e.g. a NoC request vanished
     * with retransmission disabled); the issuing thread must stall
     * forever and only a watchdog can reclaim it. */
    bool hang = false;
    /** Split transaction under the sharded mesh engine: the access
     * crosses a shard boundary and was posted to the epoch exchange
     * instead of executing. No result fields are valid; the issuing
     * thread parks until Machine::completeDeferred() delivers the
     * real outcome (keyed by @ref ticket) at the epoch barrier. */
    bool deferred = false;
    /** Identifies the posted exchange entry when deferred is set. */
    uint64_t ticket = 0;
    uint64_t startCycle = 0;    //!< when the access began service
    uint64_t completeCycle = 0; //!< when the result is available
    Word data;                  //!< loaded value (loads only)

    uint64_t
    latency() const
    {
        return completeCycle - startCycle;
    }
};

/** The complete guarded-pointer memory hierarchy. */
class MemorySystem : public MemoryPort
{
  public:
    explicit MemorySystem(const MemConfig &config = MemConfig{});

    /**
     * Timed load through a guarded pointer. The pre-issue check is the
     * pointer check only; a fault costs zero memory cycles.
     * @param ptr   guarded pointer naming the address
     * @param size  1/2/4/8 bytes, naturally aligned
     * @param now   current cycle, for bank/port contention
     * @param elide_check skip the guarded-pointer access check under a
     *        verifier proof (translation/ECC still run)
     */
    MemAccess
    load(Word ptr, unsigned size, uint64_t now = 0,
         bool elide_check = false)
    {
        return access(ptr, Access::Load, size, now, Word{},
                      elide_check);
    }

    /** Timed store through a guarded pointer. An 8-byte store of a
     * tagged word stores the pointer intact; smaller stores clear the
     * destination word's tag. */
    MemAccess
    store(Word ptr, Word value, unsigned size, uint64_t now = 0,
          bool elide_check = false)
    {
        return access(ptr, Access::Store, size, now, value,
                      elide_check);
    }

    /** Timed instruction fetch (requires execute permission);
     * elide_check skips the per-fetch pointer check while the caller
     * holds an IP proof (isa::Thread::ipProven). */
    MemAccess
    fetch(Word ip, uint64_t now = 0, bool elide_check = false)
    {
        return access(ip, Access::InstFetch, 8, now, Word{},
                      elide_check);
    }

    /**
     * Revoke or relocate a segment by unmapping its pages: removes
     * translations, blocks demand re-allocation, invalidates TLB
     * entries and flushes resident cache lines (§4.3). Dirty lines in
     * the revoked range are written back over the external interface
     * (charged timing.writeback each, occupying the port from @p now)
     * before their translation disappears — never silently discarded,
     * so a reinstated segment observes its latest stores.
     * @param now cycle the revocation is issued (port occupancy).
     */
    void unmapRange(uint64_t base, uint64_t bytes, uint64_t now = 0);

    /** Re-enable a previously unmapped range (relocation complete). */
    void mapRange(uint64_t base, uint64_t bytes);

    /**
     * Untimed functional translation of a virtual byte address, mapping
     * the page on demand unless it was unmapped; nullopt for an
     * unmapped page. The page table itself is read-only from outside:
     * unmapRange() is the only way to unmap a page, because a cached
     * line's recorded frame is valid only while its page stays mapped.
     */
    std::optional<uint64_t> translateAddr(uint64_t vaddr);

    /** Untimed functional word read (kernel/loader/debugger use). */
    Word peekWord(uint64_t vaddr);

    /**
     * Untimed word read that never demand-allocates: returns nullopt
     * for unmapped pages. Used by the address-space garbage collector
     * so scanning does not populate page tables.
     */
    std::optional<Word> tryPeekWord(uint64_t vaddr) const;

    /** Untimed functional word write (kernel/loader/debugger use). */
    void pokeWord(uint64_t vaddr, Word w);

    /** @return bank index that would service vaddr (for arbitration). */
    unsigned bankOf(uint64_t vaddr) const { return cache_.bankOf(vaddr); }

    // MemoryPort interface (delegates to the named methods above).
    MemAccess
    portLoad(Word ptr, unsigned size, uint64_t now,
             bool elide_check = false) override
    {
        return load(ptr, size, now, elide_check);
    }
    MemAccess
    portStore(Word ptr, Word value, unsigned size, uint64_t now,
              bool elide_check = false) override
    {
        return store(ptr, value, size, now, elide_check);
    }
    MemAccess
    portFetch(Word ip, uint64_t now, bool elide_check = false) override
    {
        return fetch(ip, now, elide_check);
    }
    void
    portPoke(uint64_t vaddr, Word w) override
    {
        pokeWord(vaddr, w);
    }
    Word
    portPeek(uint64_t vaddr) override
    {
        return peekWord(vaddr);
    }

    const PageTable &pageTable() const { return pageTable_; }
    Tlb &tlb() { return tlb_; }
    Cache &cache() { return cache_; }
    TaggedMemory &phys() { return phys_; }
    sim::StatGroup &stats() { return stats_; }

  private:
    /**
     * Common timed path for all access kinds; on success fills in the
     * physical address of the data. elide_check skips the pre-issue
     * guarded-pointer check (verifier-proven accesses only).
     */
    MemAccess timedAccess(Word ptr, Access kind, unsigned size,
                          uint64_t now, uint64_t &paddr,
                          bool elide_check = false);

    /**
     * One timed access of any kind: timedAccess(), then the tagged-data
     * step, which counts ECC corrections and turns a detected
     * uncorrectable error into Fault::MemoryIntegrity. A completed
     * access counts in loads/stores/fetches.
     */
    MemAccess access(Word ptr, Access kind, unsigned size, uint64_t now,
                     Word value, bool elide_check);

    MemConfig config_;
    TaggedMemory phys_;
    PageTable pageTable_;
    Tlb tlb_;
    Cache cache_;
    std::vector<uint64_t> bankBusyUntil_;
    uint64_t extBusyUntil_ = 0;
    sim::StatGroup stats_{"memsys"};

    // Cached stat handles (stable for the life of stats_), so the
    // per-access hot path pays an increment, not a map lookup
    // (docs/OBSERVABILITY.md: never counter("...") per event).
    sim::Histogram *missLatency_ = nullptr;
    sim::Histogram *conflictWait_ = nullptr;
    std::vector<sim::Histogram *> bankConflictWait_; //!< per bank
    sim::Counter *writebacks_ = nullptr;
    sim::Counter *hits_ = nullptr;
    sim::Counter *misses_ = nullptr;
    /// loads/stores/fetches, indexed by Access.
    sim::Counter *completed_[3] = {};
    sim::Counter *accessFaults_ = nullptr;
    sim::Counter *bankConflictStalls_ = nullptr;
    sim::Counter *extPortStalls_ = nullptr;
    sim::Counter *unmappedFaults_ = nullptr;
    sim::Counter *walkTransients_ = nullptr;
    sim::Counter *walkRetryExhausted_ = nullptr;
    sim::Counter *eccCorrected_ = nullptr;
    sim::Counter *eccDetected_ = nullptr;
    sim::Counter *invalidationWritebacks_ = nullptr;
};

} // namespace gp::mem

#endif // GP_MEM_MEMORY_SYSTEM_H
