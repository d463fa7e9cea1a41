/**
 * @file
 * The single global page table of the guarded-pointer memory system.
 *
 * Because protection lives entirely in pointers, translation carries no
 * per-process state: one table maps 54-bit virtual pages to physical
 * frames for every process on the machine (paper §2). Unmapping a page
 * is the revocation/relocation hook of §4.3.
 */

#ifndef GP_MEM_PAGE_TABLE_H
#define GP_MEM_PAGE_TABLE_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "sim/stats.h"

namespace gp::mem {

/** Global virtual-to-physical page mapping with a frame allocator. */
class PageTable
{
  public:
    /** @param page_bytes page size; must be a power of two. */
    explicit PageTable(uint64_t page_bytes = 4096);

    /** @return log2(page size). */
    unsigned pageShift() const { return pageShift_; }
    uint64_t pageBytes() const { return uint64_t(1) << pageShift_; }

    /** @return the virtual page number containing vaddr. */
    uint64_t vpn(uint64_t vaddr) const { return vaddr >> pageShift_; }

    /**
     * Map a virtual page to a freshly allocated physical frame.
     * @return the frame number. Remapping an already-mapped page keeps
     * its existing frame.
     */
    uint64_t map(uint64_t vpn);

    /**
     * Remove a translation. Subsequent accesses fault, which is how a
     * segment's pointers are revoked or relocated en masse (§4.3). The
     * page is also blocked from demand allocation until map()ed again,
     * so revocation cannot be undone by a stray touch.
     * @return true if the page was mapped.
     */
    bool unmap(uint64_t vpn);

    /** @return the frame for vpn, or nullopt if unmapped. */
    std::optional<uint64_t> translate(uint64_t vpn) const;

    /**
     * Translate a full virtual byte address to a physical byte address,
     * mapping the page on demand unless it was unmap()ped.
     */
    std::optional<uint64_t> translateAddr(uint64_t vaddr);

    size_t mappedPages() const { return table_.size(); }

    sim::StatGroup &stats() { return stats_; }
    const sim::StatGroup &stats() const { return stats_; }

  private:
    /// Sentinel VPN that can never match (addresses are 54-bit).
    static constexpr uint64_t kNoMru = ~uint64_t(0);

    /// Direct-mapped translation-memo size; must be a power of two.
    /// Sized so that one hot page per hardware thread slot (16) plus
    /// code pages fits without conflict in the common case.
    static constexpr size_t kMemoEntries = 64;

    /// One slot of the translateAddr() memo. Purely a host-speed
    /// cache: the timed hit path performs a functional translation
    /// per access, and the working set of pages is tiny. A positive
    /// translation can only change via unmap(), which evicts the
    /// affected slot, so a memo hit is always identical to the map
    /// lookup.
    struct MemoEntry
    {
        uint64_t vpn = kNoMru;
        uint64_t pfn = 0;
    };

    unsigned pageShift_;
    uint64_t nextFrame_ = 0;
    MemoEntry memo_[kMemoEntries];
    std::unordered_map<uint64_t, uint64_t> table_;
    /// Frames of unmapped pages, restored on re-map (reinstatement).
    std::unordered_map<uint64_t, uint64_t> suspended_;
    std::unordered_set<uint64_t> blocked_;
    sim::StatGroup stats_{"page_table"};

    // Cached stat handles: map() runs on the demand-allocation path
    // under translateAddr(), so it must not pay a string-keyed
    // lookup per event (docs/OBSERVABILITY.md).
    sim::Counter *pagesMapped_ = nullptr;
    sim::Counter *pagesUnmapped_ = nullptr;
};

} // namespace gp::mem

#endif // GP_MEM_PAGE_TABLE_H
