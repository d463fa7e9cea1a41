#include "mem/memory_system.h"

#include <algorithm>

#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace gp::mem {

namespace {

/// Check/correct latency charged on the external-interface path per
/// filled line when ECC is on, in cycles.
constexpr uint64_t kEccCycles = 1;

} // namespace

MemorySystem::MemorySystem(const MemConfig &config)
    : config_(config),
      pageTable_(config.pageBytes),
      tlb_(config.tlbEntries),
      cache_(config.cache),
      bankBusyUntil_(config.cache.banks, 0)
{
    phys_.setEccMode(config_.ecc);
    if (config_.pageBytes < config_.cache.lineBytes) {
        sim::fatal("memory system: page size %llu is smaller than "
                   "the cache line size %u; page invalidation would "
                   "be ill-defined",
                   static_cast<unsigned long long>(config_.pageBytes),
                   config_.cache.lineBytes);
    }
    // Miss latency spans hit-time + TLB + walk + external transfer;
    // 64 cycles of range covers the uncontended path with room for
    // port queueing before overflow.
    missLatency_ = &stats_.histogram("miss_latency", 16, 64);
    conflictWait_ = &stats_.histogram("conflict_wait", 16, 16);
    writebacks_ = &stats_.counter("writebacks");
    bankConflictWait_.reserve(config_.cache.banks);
    for (unsigned b = 0; b < config_.cache.banks; ++b) {
        bankConflictWait_.push_back(&stats_.histogram(
            "bank" + std::to_string(b) + "_conflict_wait", 8, 16));
    }
    hits_ = &stats_.counter("hits");
    misses_ = &stats_.counter("misses");
    completed_[unsigned(Access::Load)] = &stats_.counter("loads");
    completed_[unsigned(Access::Store)] = &stats_.counter("stores");
    completed_[unsigned(Access::InstFetch)] =
        &stats_.counter("fetches");
    accessFaults_ = &stats_.counter("access_faults");
    bankConflictStalls_ = &stats_.counter("bank_conflict_stalls");
    extPortStalls_ = &stats_.counter("ext_port_stalls");
    unmappedFaults_ = &stats_.counter("unmapped_faults");
    walkTransients_ = &stats_.counter("walk_transients");
    walkRetryExhausted_ = &stats_.counter("walk_retry_exhausted");
    eccCorrected_ = &stats_.counter("ecc_corrected");
    eccDetected_ = &stats_.counter("ecc_detected");
    invalidationWritebacks_ =
        &stats_.counter("invalidation_writebacks");
}

MemAccess
MemorySystem::timedAccess(Word ptr, Access kind, unsigned size,
                          uint64_t now, uint64_t &paddr,
                          bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;

    // Pre-issue pointer check: permission decoder + masked comparator,
    // no table access, no memory cycles (§2.2). Skipped only when the
    // caller holds a verifier proof that the check cannot fire.
    if (!elide_check) {
        acc.fault = checkAccess(ptr, kind, size);
        if (acc.fault != Fault::None) {
            acc.completeCycle = now;
            (*accessFaults_)++;
            return acc;
        }
    }

    const uint64_t vaddr = ptr.addr();
    const unsigned bank = cache_.bankOf(vaddr);
    const bool is_write = kind == Access::Store;

    // The bank port admits one access per cycle.
    const uint64_t start = std::max(now, bankBusyUntil_[bank]);
    if (start > now) {
        const uint64_t wait = start - now;
        (*bankConflictStalls_) += wait;
        conflictWait_->sample(wait);
        bankConflictWait_[bank]->sample(wait);
        GP_TRACE(Cache, now, bank, "conflict",
                 "vaddr=0x%llx wait=%llu",
                 static_cast<unsigned long long>(vaddr),
                 static_cast<unsigned long long>(wait));
    }
    bankBusyUntil_[bank] = start + 1;
    uint64_t t = start + config_.timing.cacheHit;
    // Cycle attribution (gpprof): itemise this access's latency into
    // the profiler's scratch timeline, in timeline order. Bank-port
    // queueing and the array access itself keep the access's base
    // component (I-fetch vs D-cache).
    if (sim::Profiler::armed()) {
        sim::Profiler::instance().accBase(start - now);
        sim::Profiler::instance().accBase(config_.timing.cacheHit);
    }

    // One tag search resolves the hit case (probe+update combined);
    // the fill install below runs only when the miss path succeeds,
    // so fault paths leave the array untouched, exactly as before.
    uint64_t frame;
    if (cache_.accessHit(vaddr, is_write, frame)) {
        acc.cacheHit = true;
        acc.completeCycle = t;
        // The data lives in physical memory, at the frame the line
        // recorded at fill: a hit does no translation, as in the
        // modelled virtual cache. Only unmapRange() takes a frame
        // away, and it invalidates the page's lines first.
        paddr = (frame << pageTable_.pageShift()) |
                (vaddr & (pageTable_.pageBytes() - 1));
        (*hits_)++;
        GP_TRACE(Cache, now, bank, "hit", "vaddr=0x%llx",
                 static_cast<unsigned long long>(vaddr));
        return acc;
    }

    // Miss: translate (LTLB, then page walk) — the only point where
    // translation happens at all.
    const uint64_t vpn = pageTable_.vpn(vaddr);
    auto pfn = tlb_.lookup(vpn);
    t += config_.timing.tlbLookup;
    if (sim::Profiler::armed())
        sim::Profiler::instance().accSeg(sim::ProfComp::TlbWalk,
                                         config_.timing.tlbLookup);
    if (!pfn) {
        // Page walk, with bounded retry of transient walk failures
        // (injected by the fault campaign). Each attempt costs a
        // full ptWalk; exhausting the retry budget is a detected
        // hardware error, not silent corruption.
        bool walked = false;
        for (unsigned attempt = 0;
             attempt <= config_.walkRetries; ++attempt) {
            t += config_.timing.ptWalk;
            if (sim::Profiler::armed())
                sim::Profiler::instance().accSeg(
                    sim::ProfComp::TlbWalk, config_.timing.ptWalk);
            if (sim::FaultInjector::armed() &&
                sim::FaultInjector::instance().fire(
                    sim::FaultSite::PtWalkTransient)) {
                (*walkTransients_)++;
                GP_TRACE(TLB, now, bank, "walk-transient",
                         "vpn=0x%llx attempt=%u",
                         static_cast<unsigned long long>(vpn),
                         attempt);
                continue;
            }
            walked = true;
            break;
        }
        if (!walked) {
            acc.fault = Fault::MemoryIntegrity;
            acc.completeCycle = t;
            (*walkRetryExhausted_)++;
            GP_TRACE(Fault, now, bank, "walk-retry-exhausted",
                     "vaddr=0x%llx vpn=0x%llx",
                     static_cast<unsigned long long>(vaddr),
                     static_cast<unsigned long long>(vpn));
            return acc;
        }
        auto pa = pageTable_.translateAddr(vaddr);
        if (!pa) {
            acc.fault = Fault::UnmappedAddress;
            acc.completeCycle = t;
            (*unmappedFaults_)++;
            GP_TRACE(Fault, now, bank, "unmapped-address",
                     "vaddr=0x%llx vpn=0x%llx",
                     static_cast<unsigned long long>(vaddr),
                     static_cast<unsigned long long>(vpn));
            return acc;
        }
        pfn = *pa >> pageTable_.pageShift();
        frame = *pfn;
        tlb_.insert(vpn, *pfn);
        GP_TRACE(TLB, now, bank, "walk", "vpn=0x%llx pfn=0x%llx",
                 static_cast<unsigned long long>(vpn),
                 static_cast<unsigned long long>(*pfn));
    } else {
        // The line records the page table's frame, not the TLB's: a
        // corrupted TLB entry misdirects only the access that used
        // it, never the hits on the line it filled.
        auto pa = pageTable_.translateAddr(vaddr);
        if (!pa)
            sim::panic("LTLB holds unmapped page 0x%llx",
                       static_cast<unsigned long long>(vpn));
        frame = *pa >> pageTable_.pageShift();
        GP_TRACE(TLB, now, bank, "hit", "vpn=0x%llx",
                 static_cast<unsigned long long>(vpn));
    }
    paddr = (*pfn << pageTable_.pageShift()) |
            (vaddr & (pageTable_.pageBytes() - 1));

    // Line fill (and any dirty writeback) over the single external
    // memory interface.
    const CacheResult cr = cache_.access(vaddr, is_write, 0, frame);
    const uint64_t ext_start = std::max(t, extBusyUntil_);
    if (ext_start > t)
        (*extPortStalls_) += ext_start - t;
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBase(ext_start - t);
    uint64_t busy = config_.timing.extMemAccess;
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBase(config_.timing.extMemAccess);
    if (config_.ecc != EccMode::None) {
        // Check/correct logic sits on the external interface: one
        // codec pass per filled line.
        busy += kEccCycles;
        if (sim::Profiler::armed())
            sim::Profiler::instance().accSeg(sim::ProfComp::Ecc,
                                             kEccCycles);
    }
    if (cr.writeback) {
        busy += config_.timing.writeback;
        if (sim::Profiler::armed())
            sim::Profiler::instance().accBase(
                config_.timing.writeback);
        (*writebacks_)++;
        // Attribute the writeback to the victim's address space (the
        // guarded configuration always runs ASID 0, but the shared
        // datapath must not pin the victim to the accessor's space).
        GP_TRACE(Cache, now, bank, "writeback",
                 "victim_line=0x%llx victim_asid=%u",
                 static_cast<unsigned long long>(cr.victimLineAddr),
                 unsigned(cr.victimAsid));
    }
    t = ext_start + busy;
    extBusyUntil_ = t;

    acc.cacheHit = false;
    acc.completeCycle = t;
    (*misses_)++;
    missLatency_->sample(t - now);
    GP_TRACE(Cache, now, bank, "miss", "vaddr=0x%llx latency=%llu",
             static_cast<unsigned long long>(vaddr),
             static_cast<unsigned long long>(t - now));
    return acc;
}

MemAccess
MemorySystem::access(Word ptr, Access kind, unsigned size, uint64_t now,
                     Word value, bool elide_check)
{
    uint64_t paddr = 0;
    MemAccess acc =
        timedAccess(ptr, kind, size, now, paddr, elide_check);
    if (acc.fault != Fault::None)
        return acc;

    const CheckedWord cw =
        phys_.access(kind == Access::Store, paddr, size, value);
    acc.data = cw.word;
    if (cw.status == EccStatus::Corrected) {
        (*eccCorrected_)++;
        GP_TRACE(Fault, acc.startCycle, 0, "ecc-corrected",
                 "paddr=0x%llx",
                 static_cast<unsigned long long>(paddr));
    } else if (cw.status == EccStatus::Detected) {
        // Uncorrectable: the word must not be consumed. Surface as a
        // memory-integrity machine fault.
        acc.fault = Fault::MemoryIntegrity;
        (*eccDetected_)++;
        GP_TRACE(Fault, acc.startCycle, 0, "ecc-detected",
                 "paddr=0x%llx",
                 static_cast<unsigned long long>(paddr));
        return acc;
    }
    (*completed_[unsigned(kind)])++;
    return acc;
}

void
MemorySystem::unmapRange(uint64_t base, uint64_t bytes, uint64_t now)
{
    const uint64_t page = pageTable_.pageBytes();
    const uint64_t first = base & ~(page - 1);
    unsigned dirty_total = 0;
    for (uint64_t va = first; va < base + bytes; va += page) {
        const uint64_t vpn = pageTable_.vpn(va);
        pageTable_.unmap(vpn);
        tlb_.invalidate(vpn);
        const PageInvalidation inv =
            cache_.invalidatePage(va, pageTable_.pageShift());
        dirty_total += inv.writebacks;
    }
    if (dirty_total > 0) {
        // The revoked pages' dirty victims go out over the single
        // external interface, exactly like miss-path writebacks: they
        // occupy the port back-to-back from the issue cycle. Dropping
        // them instead would lose the revoked segment's latest stores,
        // which a reinstated (relocated) segment must observe.
        (*invalidationWritebacks_) += dirty_total;
        (*writebacks_) += dirty_total;
        const uint64_t start = std::max(now, extBusyUntil_);
        extBusyUntil_ =
            start + uint64_t(dirty_total) * config_.timing.writeback;
        GP_TRACE(Cache, now, 0, "unmap_writeback", "dirty_lines=%u",
                 dirty_total);
    }
}

void
MemorySystem::mapRange(uint64_t base, uint64_t bytes)
{
    const uint64_t page = pageTable_.pageBytes();
    const uint64_t first = base & ~(page - 1);
    for (uint64_t va = first; va < base + bytes; va += page)
        pageTable_.map(pageTable_.vpn(va));
}

std::optional<Word>
MemorySystem::tryPeekWord(uint64_t vaddr) const
{
    auto pfn = pageTable_.translate(pageTable_.vpn(vaddr));
    if (!pfn)
        return std::nullopt;
    const uint64_t pa = (*pfn << pageTable_.pageShift()) |
                        (vaddr & (pageTable_.pageBytes() - 1));
    return phys_.readWord(pa);
}

std::optional<uint64_t>
MemorySystem::translateAddr(uint64_t vaddr)
{
    return pageTable_.translateAddr(vaddr);
}

Word
MemorySystem::peekWord(uint64_t vaddr)
{
    auto pa = pageTable_.translateAddr(vaddr);
    if (!pa)
        return Word{};
    return phys_.readWord(*pa);
}

void
MemorySystem::pokeWord(uint64_t vaddr, Word w)
{
    auto pa = pageTable_.translateAddr(vaddr);
    if (!pa)
        sim::fatal("pokeWord to unmapped address 0x%llx",
                   static_cast<unsigned long long>(vaddr));
    phys_.writeWord(*pa, w);
}

} // namespace gp::mem
