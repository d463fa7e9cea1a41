/**
 * @file
 * Best-fit free-list allocator over arbitrary-size blocks.
 *
 * This is the *counterfactual* to the paper's buddy system: guarded
 * pointers force power-of-two aligned segments because the bounds are
 * encoded in a 6-bit log2 length field, trading internal
 * fragmentation for a one-word capability. An architecture with full
 * base+limit bounds (e.g. 128-bit capabilities) could allocate exact
 * sizes with an allocator like this one. The A2 ablation bench runs
 * both over identical request streams to quantify exactly what the
 * 6-bit encoding costs and buys.
 *
 * Blocks are byte-granular (rounded to 8 bytes), best-fit selected,
 * and coalesced with free neighbours on release.
 */

#ifndef GP_OS_FREELIST_ALLOCATOR_H
#define GP_OS_FREELIST_ALLOCATOR_H

#include <cstdint>
#include <map>
#include <optional>

#include "sim/stats.h"

namespace gp::os {

/** Best-fit allocator with address-ordered coalescing. */
class FreeListAllocator
{
  public:
    /** Manage [base, base + bytes). */
    FreeListAllocator(uint64_t base, uint64_t bytes);

    /**
     * Allocate exactly `bytes` (rounded up to 8).
     * @return block base or nullopt if no free block fits.
     */
    std::optional<uint64_t> allocate(uint64_t bytes);

    /**
     * Release a block previously returned by allocate().
     * @return false if base is not a live allocation.
     */
    bool free(uint64_t base);

    uint64_t freeBytes() const { return freeBytes_; }

    /** Size of the largest free block (0 if none). */
    uint64_t largestFreeBlock() const;

    size_t freeBlockCount() const { return freeByAddr_.size(); }

  private:
    /// free blocks keyed by base -> size
    std::map<uint64_t, uint64_t> freeByAddr_;
    /// live allocations keyed by base -> size
    std::map<uint64_t, uint64_t> live_;
    uint64_t freeBytes_ = 0;
    sim::StatGroup stats_{"freelist"};
};

} // namespace gp::os

#endif // GP_OS_FREELIST_ALLOCATOR_H
