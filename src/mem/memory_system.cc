#include "mem/memory_system.h"

#include <algorithm>

#include "sim/faultinject.h"

namespace gp::mem {

namespace {

/// Check/correct latency charged on the external-interface path per
/// filled line when ECC is on, in cycles.
constexpr uint64_t kEccCycles = 1;

} // namespace

MemorySystem::MemorySystem(const MemConfig &config)
    : AccessPath(config),
      tlb_(config.tlbEntries),
      cache_(config.cache),
      bankBusyUntil_(config.cache.banks, 0)
{
    phys_.setEccMode(config_.ecc);
    registerCounters();
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
    misses_ = &stats_.counter("misses");
    bankConflictStalls_ = &stats_.counter("bank_conflict_stalls");
    extPortStalls_ = &stats_.counter("ext_port_stalls");
    walkTransients_ = &stats_.counter("walk_transients");
    walkRetryExhausted_ = &stats_.counter("walk_retry_exhausted");
    invalidationWritebacks_ =
        &stats_.counter("invalidation_writebacks");
}

inline uint64_t
MemorySystem::start(unsigned bank, uint64_t vaddr, uint64_t now)
{
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
    return start;
}

inline bool
MemorySystem::walkTransient()
{
    return sim::FaultInjector::armed() &&
           sim::FaultInjector::instance().fire(
               sim::FaultSite::PtWalkTransient);
}

inline bool
MemorySystem::fill(uint64_t vaddr, Access kind, uint64_t frame,
                   unsigned bank, uint64_t now, uint64_t &t, MemAccess &)
{
    // Line fill (and any dirty writeback) over the single external
    // memory interface.
    const CacheResult cr =
        cache_.access(vaddr, kind == Access::Store, 0, frame);
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

    (*misses_)++;
    missLatency_->sample(t - now);
    GP_TRACE(Cache, now, bank, "miss", "vaddr=0x%llx latency=%llu",
             static_cast<unsigned long long>(vaddr),
             static_cast<unsigned long long>(t - now));
    return true;
}

void
MemorySystem::unmapRange(uint64_t base, uint64_t bytes, uint64_t now)
{
    const uint64_t first = base & ~(kPageBytes - 1);
    unsigned dirty_total = 0;
    for (uint64_t va = first; va < base + bytes; va += kPageBytes) {
        const uint64_t vpn = va >> kPageShift;
        pageTable_.unmap(vpn);
        tlb_.invalidate(vpn);
        const PageInvalidation inv = cache_.invalidatePage(va, kPageShift);
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
    const uint64_t first = base & ~(kPageBytes - 1);
    for (uint64_t va = first; va < base + bytes; va += kPageBytes)
        pageTable_.map(va >> kPageShift);
}

std::optional<Word>
MemorySystem::tryPeekWord(uint64_t vaddr) const
{
    auto pfn = pageTable_.translate(vaddr >> kPageShift);
    if (!pfn)
        return std::nullopt;
    const uint64_t pa = (*pfn << kPageShift) | (vaddr & (kPageBytes - 1));
    return phys_.readWord(pa);
}

template class AccessPath<MemorySystem>;

} // namespace gp::mem
