#include "mem/tlb.h"

#include <iterator>

#include "sim/log.h"

namespace gp::mem {

Tlb::Tlb(size_t entries) : capacity_(entries)
{
    if (entries == 0)
        sim::fatal("TLB capacity must be nonzero");
    hits_ = &stats_.counter("hits");
    misses_ = &stats_.counter("misses");
    evictions_ = &stats_.counter("evictions");
    invalidations_ = &stats_.counter("invalidations");
    fullFlushes_ = &stats_.counter("full_flushes");
    asidFlushes_ = &stats_.counter("asid_flushes");
    entriesFlushed_ = &stats_.counter("entries_flushed");
}

std::optional<uint64_t>
Tlb::lookup(uint64_t vpn, uint16_t asid)
{
    auto it = map_.find(Key{vpn, asid});
    if (it == map_.end()) {
        (*misses_)++;
        return std::nullopt;
    }
    (*hits_)++;
    // Move to MRU position.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->pfn;
}

void
Tlb::insert(uint64_t vpn, uint64_t pfn, uint16_t asid)
{
    const Key key{vpn, asid};
    auto it = map_.find(key);
    if (it != map_.end()) {
        it->second->pfn = pfn;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (map_.size() >= capacity_) {
        const Entry &victim = lru_.back();
        map_.erase(victim.key);
        lru_.pop_back();
        (*evictions_)++;
    }
    lru_.push_front(Entry{key, pfn});
    map_[key] = lru_.begin();
}

void
Tlb::invalidate(uint64_t vpn, uint16_t asid)
{
    auto it = map_.find(Key{vpn, asid});
    if (it == map_.end())
        return;
    lru_.erase(it->second);
    map_.erase(it);
    (*invalidations_)++;
}

bool
Tlb::corruptRandom(sim::Rng &rng)
{
    if (lru_.empty())
        return false;
    auto it = lru_.begin();
    std::advance(it, rng.below(lru_.size()));
    // Frame numbers are small in practice; flip among the low 20
    // bits so the corrupted translation stays inside the modelled
    // physical space yet names the wrong frame.
    it->pfn ^= uint64_t(1) << rng.below(20);
    return true;
}

bool
Tlb::invalidateRandom(sim::Rng &rng)
{
    if (lru_.empty())
        return false;
    auto it = lru_.begin();
    std::advance(it, rng.below(lru_.size()));
    map_.erase(it->key);
    lru_.erase(it);
    return true;
}

void
Tlb::flushAll()
{
    (*fullFlushes_)++;
    (*entriesFlushed_) += map_.size();
    lru_.clear();
    map_.clear();
}

void
Tlb::flushAsid(uint16_t asid)
{
    (*asidFlushes_)++;
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->key.asid == asid) {
            (*entriesFlushed_)++;
            map_.erase(it->key);
            it = lru_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace gp::mem
