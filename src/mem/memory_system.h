/**
 * @file
 * The guarded-pointer memory system of a lone machine.
 *
 * Owns the machine's page table and tagged physical memory and runs
 * the shared access sequence of mem::AccessPath (pointer check before
 * issue, virtual cache probe, translation only on a miss) over them.
 * What only a lone machine has is its timing model of the two
 * contention points of the MAP memory system: the per-bank port (one
 * access per cycle per bank) and the single external memory
 * interface, which a line fill occupies for the transfer, one ECC
 * check cycle when ECC is on, and any dirty-victim writeback. Only a
 * lone machine can unmap (revoke or relocate) a range.
 */

#ifndef GP_MEM_MEMORY_SYSTEM_H
#define GP_MEM_MEMORY_SYSTEM_H

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/access_path.h"

namespace gp::mem {

/** The complete guarded-pointer memory hierarchy of a lone machine. */
class MemorySystem : public AccessPath<MemorySystem>
{
  public:
    explicit MemorySystem(const MemConfig &config = MemConfig{});

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
     * Untimed word read that never demand-allocates: returns nullopt
     * for unmapped pages. Used by the address-space garbage collector
     * so scanning does not populate page tables.
     */
    std::optional<Word> tryPeekWord(uint64_t vaddr) const;

    /** @return bank index that would service vaddr (for arbitration). */
    unsigned bankOf(uint64_t vaddr) const { return cache_.bankOf(vaddr); }

    /** The page table is read-only from outside: unmapRange() is the
     * only way to unmap a page, because a cached line's recorded
     * frame is valid only while its page stays mapped. */
    const PageTable &pageTable() const { return pageTable_; }
    Tlb &tlb() { return tlb_; }
    Cache &cache() { return cache_; }
    TaggedMemory &phys() { return phys_; }

  private:
    friend class AccessPath<MemorySystem>;

    // AccessPath hooks (see access_path.h).
    bool
    admit(Word, Access, unsigned, uint64_t, Word, MemAccess &)
    {
        return true;
    }
    uint64_t start(unsigned bank, uint64_t vaddr, uint64_t now);
    bool walkTransient();
    bool fill(uint64_t vaddr, Access kind, uint64_t frame, unsigned bank,
              uint64_t now, uint64_t &t, MemAccess &acc);
    void deliver(MemAccess &) {}
    PageTable &tableFor(uint64_t) { return pageTable_; }
    TaggedMemory &physFor(uint64_t) { return phys_; }

    // In stat-group registration order: page_table, tlb, cache, memsys.
    TaggedMemory phys_;
    PageTable pageTable_{kPageBytes};
    Tlb tlb_;
    Cache cache_;
    sim::StatGroup stats_{"memsys"};
    std::vector<uint64_t> bankBusyUntil_;
    uint64_t extBusyUntil_ = 0;

    // Cached handles of the lone-only stats (see AccessPath).
    sim::Histogram *missLatency_ = nullptr;
    sim::Histogram *conflictWait_ = nullptr;
    std::vector<sim::Histogram *> bankConflictWait_; //!< per bank
    sim::Counter *writebacks_ = nullptr;
    sim::Counter *misses_ = nullptr;
    sim::Counter *bankConflictStalls_ = nullptr;
    sim::Counter *extPortStalls_ = nullptr;
    sim::Counter *invalidationWritebacks_ = nullptr;
};

extern template class AccessPath<MemorySystem>;

} // namespace gp::mem

#endif // GP_MEM_MEMORY_SYSTEM_H
