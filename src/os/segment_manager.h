/**
 * @file
 * Segment manager: the OS service that mints guarded pointers.
 *
 * Allocates power-of-two segments from the shared virtual space via
 * the buddy allocator, returns guarded pointers of the requested
 * permission, and implements the §4.3 lifecycle operations: revocation
 * and relocation by page unmapping, and freeing back to the buddy
 * system. It also accounts internal fragmentation (requested vs
 * allocated bytes) for the C2 experiment.
 */

#ifndef GP_OS_SEGMENT_MANAGER_H
#define GP_OS_SEGMENT_MANAGER_H

#include <cstdint>
#include <map>
#include <optional>

#include "gp/fault.h"
#include "gp/pointer.h"
#include "mem/memory_system.h"
#include "os/buddy_allocator.h"
#include "sim/stats.h"

namespace gp::os {

/** Book-keeping record for one live segment. */
struct Segment
{
    uint64_t base = 0;
    uint64_t lenLog2 = 0;
    uint64_t requestedBytes = 0;
    bool revoked = false;
};

/** Allocates and tracks segments of the shared address space. */
class SegmentManager
{
  public:
    /**
     * @param mem        the memory system whose pages back segments
     * @param heap_base  start of the managed region (aligned)
     * @param heap_log2  log2 size of the managed region
     */
    SegmentManager(mem::MemorySystem &mem, uint64_t heap_base,
                   uint64_t heap_log2);

    /**
     * Allocate a segment of at least bytes and mint a pointer to its
     * base with the given permission.
     */
    Result<Word> allocate(uint64_t bytes, Perm perm);

    /**
     * Free the segment containing the pointer's base address. The
     * pages are unmapped so stale pointers fault rather than aliasing
     * future allocations.
     * @return false if no such segment is live.
     */
    bool free(Word ptr);

    /** Free by base address. */
    bool freeBase(uint64_t base);

    /**
     * Revoke all outstanding pointers to a segment by unmapping its
     * pages (§4.3). The segment stays allocated; subsequent accesses
     * through any copy of any pointer into it fault.
     */
    bool revoke(uint64_t base);

    /** Undo a revocation (e.g. after relocation bookkeeping). */
    bool reinstate(uint64_t base);

    /**
     * Relocate a segment's backing: copy contents to a fresh segment
     * of the same order and unmap the old pages. Old pointers fault;
     * the returned pointer addresses the new location.
     */
    Result<Word> relocate(uint64_t base, Perm perm);

    /** @return the live segment containing addr, if any. */
    std::optional<Segment> segmentContaining(uint64_t addr) const;

    /** All live segments keyed by base. */
    const std::map<uint64_t, Segment> &segments() const
    {
        return segments_;
    }

    /** Sum of requested bytes across live segments. */
    uint64_t requestedBytes() const { return requestedBytes_; }

    /** Sum of allocated (power-of-two) bytes across live segments. */
    uint64_t allocatedBytes() const { return allocatedBytes_; }

    BuddyAllocator &buddy() { return buddy_; }

  private:
    mem::MemorySystem &mem_;
    BuddyAllocator buddy_;
    std::map<uint64_t, Segment> segments_;
    uint64_t requestedBytes_ = 0;
    uint64_t allocatedBytes_ = 0;
    sim::StatGroup stats_{"segman"};
};

} // namespace gp::os

#endif // GP_OS_SEGMENT_MANAGER_H
