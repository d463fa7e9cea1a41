/**
 * @file
 * Buddy allocator for the shared virtual address space.
 *
 * Guarded-pointer segments must be power-of-two sized and aligned on
 * their length, and §4.2 of the paper prescribes exactly this buddy
 * scheme to bound external fragmentation of the virtual space: freed
 * blocks coalesce with their buddies back into larger blocks. The C2
 * fragmentation bench measures both internal waste (power-of-two
 * rounding) and external fragmentation under churn using this
 * allocator.
 */

#ifndef GP_OS_BUDDY_ALLOCATOR_H
#define GP_OS_BUDDY_ALLOCATOR_H

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "sim/stats.h"

namespace gp::os {

/** Power-of-two buddy allocator over [base, base + 2^len_log2). */
class BuddyAllocator
{
  public:
    /**
     * @param base       start of the managed region; must be aligned
     *                   to 2^len_log2
     * @param len_log2   log2 of the managed region size in bytes
     * @param min_log2   smallest block order handed out (default one
     *                   8-byte word)
     */
    BuddyAllocator(uint64_t base, uint64_t len_log2,
                   uint64_t min_log2 = 3);

    /**
     * Allocate a block of exactly 2^order bytes, aligned on its size.
     * @return the block base, or nullopt when no block fits.
     */
    std::optional<uint64_t> allocate(uint64_t order);

    /**
     * Allocate the smallest power-of-two block holding bytes.
     * @return (base, order) or nullopt.
     */
    std::optional<std::pair<uint64_t, uint64_t>>
    allocateBytes(uint64_t bytes);

    /**
     * Return a block to the allocator, coalescing with free buddies.
     * @return false if the block was not an allocated block boundary.
     */
    bool free(uint64_t base, uint64_t order);

    /** @return total free bytes. */
    uint64_t freeBytes() const;

    /** @return the order of the largest free block, or nullopt. */
    std::optional<uint64_t> largestFreeOrder() const;

    /** @return number of free blocks (fragmentation indicator). */
    size_t freeBlockCount() const;

    sim::StatGroup &stats() { return stats_; }

  private:
    /** @return the buddy address of a block of the given order. */
    uint64_t
    buddyOf(uint64_t addr, uint64_t order) const
    {
        return ((addr - base_) ^ (uint64_t(1) << order)) + base_;
    }

    uint64_t base_;
    uint64_t regionLog2_;
    uint64_t minLog2_;
    /// freeLists_[order - minLog2_] = set of free block bases.
    std::vector<std::set<uint64_t>> freeLists_;
    sim::StatGroup stats_{"buddy"};
};

} // namespace gp::os

#endif // GP_OS_BUDDY_ALLOCATOR_H
