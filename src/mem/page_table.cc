#include "mem/page_table.h"

#include "sim/log.h"

namespace gp::mem {

PageTable::PageTable(uint64_t page_bytes)
{
    if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
        sim::fatal("page size must be a power of two");
    pageShift_ = static_cast<unsigned>(__builtin_ctzll(page_bytes));
    pagesMapped_ = &stats_.counter("pages_mapped");
    pagesUnmapped_ = &stats_.counter("pages_unmapped");
}

uint64_t
PageTable::map(uint64_t vpn)
{
    blocked_.erase(vpn);
    auto it = table_.find(vpn);
    if (it != table_.end())
        return it->second;
    // Re-mapping a previously unmapped page restores its old frame so
    // reinstated segments keep their contents (§4.3 relocation).
    uint64_t pfn;
    if (auto sus = suspended_.find(vpn); sus != suspended_.end()) {
        pfn = sus->second;
        suspended_.erase(sus);
    } else {
        pfn = nextFrame_++;
    }
    table_.emplace(vpn, pfn);
    (*pagesMapped_)++;
    return pfn;
}

bool
PageTable::unmap(uint64_t vpn)
{
    (*pagesUnmapped_)++;
    blocked_.insert(vpn);
    // Drop the memo slot before the translation goes.
    memo_[vpn & (kMemoEntries - 1)].vpn = kNoMru;
    auto it = table_.find(vpn);
    if (it == table_.end())
        return false;
    suspended_[vpn] = it->second;
    table_.erase(it);
    return true;
}

std::optional<uint64_t>
PageTable::translate(uint64_t vpn) const
{
    auto it = table_.find(vpn);
    if (it == table_.end())
        return std::nullopt;
    return it->second;
}

std::optional<uint64_t>
PageTable::translateAddr(uint64_t vaddr)
{
    const uint64_t page = vpn(vaddr);
    // Direct-mapped memo: a positive translation can only change via
    // unmap(), which evicts the affected slot, so a match is always
    // the same answer the map lookup would give.
    MemoEntry &slot = memo_[page & (kMemoEntries - 1)];
    if (slot.vpn == page)
        return (slot.pfn << pageShift_) | (vaddr & (pageBytes() - 1));
    auto pfn = translate(page);
    if (!pfn) {
        if (blocked_.count(page))
            return std::nullopt;
        pfn = map(page);
    }
    slot.vpn = page;
    slot.pfn = *pfn;
    return (*pfn << pageShift_) | (vaddr & (pageBytes() - 1));
}

} // namespace gp::mem
