#include "mem/cache.h"

#include "sim/log.h"

namespace gp::mem {

namespace {

unsigned
log2Exact(uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        sim::fatal("cache %s must be a power of two", what);
    return static_cast<unsigned>(__builtin_ctzll(v));
}

/// Lines in the array. Runs after the line-size and bank-count
/// checks (members lineShift_ and bankShift_ come first), before the
/// array is built.
uint64_t
lineCount(const CacheConfig &config)
{
    log2Exact(config.setsPerBank, "sets per bank");
    if (config.ways == 0)
        sim::fatal("cache associativity must be nonzero");
    return uint64_t(config.banks) * config.setsPerBank * config.ways;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config),
      lineShift_(log2Exact(config.lineBytes, "line size")),
      bankShift_(log2Exact(config.banks, "bank count")),
      lines_(lineCount(config))
{
    // Register every stat once; the access path only increments
    // through these handles (see docs/OBSERVABILITY.md).
    hits_ = &stats_.counter("hits");
    misses_ = &stats_.counter("misses");
    writebacks_ = &stats_.counter("writebacks");
    pageInvalidations_ = &stats_.counter("page_invalidations");
    linesInvalidated_ = &stats_.counter("lines_invalidated");
    invalidationWritebacks_ =
        &stats_.counter("invalidation_writebacks");
    fullFlushes_ = &stats_.counter("full_flushes");
    flushWritebacks_ = &stats_.counter("flush_writebacks");
}

uint64_t
Cache::capacityBytes() const
{
    return uint64_t(config_.banks) * config_.setsPerBank * config_.ways *
           config_.lineBytes;
}

void
Cache::locate(uint64_t vaddr, unsigned &bank, unsigned &set,
              uint64_t &line_addr) const
{
    line_addr = vaddr >> lineShift_;
    bank = line_addr & (config_.banks - 1);
    set = (line_addr >> bankShift_) & (config_.setsPerBank - 1);
}

Cache::Line *
Cache::findLine(unsigned bank, unsigned set, uint64_t line_addr,
                uint16_t asid)
{
    const uint64_t base =
        (uint64_t(bank) * config_.setsPerBank + set) * config_.ways;
    for (unsigned w = 0; w < config_.ways; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.lineAddr == line_addr && line.asid == asid)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(unsigned bank, unsigned set, uint64_t line_addr,
                uint16_t asid) const
{
    return const_cast<Cache *>(this)->findLine(bank, set, line_addr,
                                               asid);
}

CacheResult
Cache::access(uint64_t vaddr, bool is_write, uint16_t asid,
              uint64_t frame)
{
    unsigned bank, set;
    uint64_t line_addr;
    locate(vaddr, bank, set, line_addr);
    stamp_++;

    if (Line *line = findLine(bank, set, line_addr, asid)) {
        line->lruStamp = stamp_;
        line->dirty = line->dirty || is_write;
        (*hits_)++;
        return CacheResult{true, false, 0, 0};
    }

    (*misses_)++;

    // Choose the LRU way (preferring invalid lines) as victim.
    const uint64_t base =
        (uint64_t(bank) * config_.setsPerBank + set) * config_.ways;
    Line *victim = &lines_[base];
    for (unsigned w = 0; w < config_.ways; ++w) {
        Line &line = lines_[base + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    lines_.fill(size_t(victim - &lines_[0])); // marks victim's chunk

    CacheResult result{false, false, 0, 0};
    if (victim->valid && victim->dirty) {
        result.writeback = true;
        result.victimLineAddr = victim->lineAddr;
        // The writeback belongs to the *victim's* address space: a
        // cross-domain eviction must not be attributed (or, in
        // ASID-tagged schemes, translated) against the accessor.
        result.victimAsid = victim->asid;
        (*writebacks_)++;
    }

    victim->valid = true;
    victim->dirty = is_write;
    victim->lineAddr = line_addr;
    victim->asid = asid;
    victim->lruStamp = stamp_;
    victim->frame = frame;
    return result;
}

bool
Cache::accessHit(uint64_t vaddr, bool is_write, uint64_t &frame)
{
    unsigned bank, set;
    uint64_t line_addr;
    locate(vaddr, bank, set, line_addr);
    Line *line = findLine(bank, set, line_addr, 0);
    if (!line)
        return false;
    stamp_++;
    line->lruStamp = stamp_;
    line->dirty = line->dirty || is_write;
    (*hits_)++;
    frame = line->frame;
    return true;
}

bool
Cache::probe(uint64_t vaddr, uint16_t asid) const
{
    unsigned bank, set;
    uint64_t line_addr;
    locate(vaddr, bank, set, line_addr);
    return findLine(bank, set, line_addr, asid) != nullptr;
}

PageInvalidation
Cache::invalidatePage(uint64_t vaddr, unsigned page_shift, uint16_t asid)
{
    // A page smaller than a cache line would make the shifts below
    // undefined behaviour; reject it loudly rather than corrupting
    // the line-address arithmetic.
    if (page_shift < lineShift_) {
        sim::fatal("cache invalidatePage: page shift %u is smaller "
                   "than the line shift %u (page must cover at least "
                   "one %u-byte line)",
                   page_shift, lineShift_, config_.lineBytes);
    }
    const uint64_t first_line = (vaddr >> page_shift) <<
                                (page_shift - lineShift_);
    const uint64_t lines_per_page = uint64_t(1) << (page_shift -
                                                    lineShift_);
    PageInvalidation result;
    for (uint64_t la = first_line; la < first_line + lines_per_page;
         ++la) {
        const unsigned bank = la & (config_.banks - 1);
        const unsigned set =
            (la >> bankShift_) & (config_.setsPerBank - 1);
        if (Line *line = findLine(bank, set, la, asid)) {
            // Dirty lines are surfaced as writebacks; the caller
            // charges the writeback cost and accounts the data as
            // written back, never silently lost.
            if (line->dirty)
                result.writebacks++;
            line->valid = false;
            line->dirty = false;
            result.invalidated++;
        }
    }
    (*pageInvalidations_)++;
    (*linesInvalidated_) += result.invalidated;
    (*invalidationWritebacks_) += result.writebacks;
    return result;
}

unsigned
Cache::flushAll()
{
    // Lines outside the written chunks are all zero, hence invalid.
    unsigned dirty = 0;
    lines_.forEachWritten([&](const Line &line) {
        if (line.valid && line.dirty)
            dirty++;
    });
    lines_.clear();
    (*fullFlushes_)++;
    (*flushWritebacks_) += dirty;
    return dirty;
}

} // namespace gp::mem
