/**
 * @file
 * The one timed access path of a guarded-pointer memory port, shared
 * by a lone machine's MemorySystem and a mesh node's noc::NodeMemory.
 * Every access runs the sequence of the paper:
 *
 *   1. the permission/bounds check happens before issue, from the
 *      pointer alone, costing no table lookups (§2.2);
 *   2. the cache is probed with the *virtual* address (§3); a hit
 *      uses the physical frame its line recorded at fill, so it does
 *      no translation at all;
 *   3. translation (LTLB, then a page walk) is performed only on a
 *      miss (§3, §4.1);
 *   4. the data word goes through the tagged store and its ECC check.
 *
 * The port type @p Home (the CRTP derived class) owns the state the
 * path runs over: `cache_`, `tlb_` and `stats_`, declared in the order
 * their stat groups must register, since stat dumps list groups in
 * that order. It supplies only what differs between a lone machine
 * and a mesh node, as ordinary member functions the compiler inlines,
 * so the hit path makes no virtual call:
 *
 *   - admit(): the issue gate after the pointer check. A node ends an
 *     access to a home outside the mesh there, and defers a remote
 *     one to the sharded engine's epoch exchange;
 *   - start(): the cycle the cache array access begins. A lone machine
 *     arbitrates its bank ports there; a node starts at once;
 *   - walkTransient(): whether one page-walk attempt failed
 *     transiently (fault injection; a lone machine only);
 *   - fill(): moves a missing line into the cache and installs it. A
 *     lone machine charges its external port (ECC cycle and dirty
 *     writeback included); a node pays its home leg, local or over
 *     the mesh;
 *   - deliver(): a last touch on the data a fill brought (a node's
 *     raw-link reply corruption);
 *   - tableFor() / physFor(): the page table and tagged store that
 *     hold an address.
 */

#ifndef GP_MEM_ACCESS_PATH_H
#define GP_MEM_ACCESS_PATH_H

#include <cstdint>
#include <optional>

#include "gp/ops.h"
#include "gp/word.h"
#include "mem/cache.h"
#include "mem/ecc.h"
#include "mem/memory_port.h"
#include "mem/page_table.h"
#include "mem/tagged_memory.h"
#include "mem/tlb.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace gp::mem {

/** Cycle costs of the memory-system components. */
struct MemTiming
{
    uint64_t cacheHit = 1;     //!< bank access (hit or miss probe)
    uint64_t tlbLookup = 1;    //!< LTLB lookup on the miss path
    uint64_t ptWalk = 20;      //!< page-table walk on LTLB miss
    uint64_t extMemAccess = 8; //!< line fill over the external interface
    uint64_t writeback = 4;    //!< dirty-victim writeback on the same port
};

/** Full configuration of a memory port. Pages are kPageBytes. */
struct MemConfig
{
    CacheConfig cache;
    size_t tlbEntries = 64;
    MemTiming timing;

    /** Hardening code over every stored 65-bit word (off by default
     * so baseline timing/storage is unchanged). */
    EccMode ecc = EccMode::None;
    /** Extra page-walk attempts after a transient walk failure; 0
     * means a transient failure is immediately uncorrectable. */
    unsigned walkRetries = 0;
};

/** Outcome of a timed memory access. */
struct MemAccess
{
    Fault fault = Fault::None;
    bool cacheHit = false;
    /** The access will never complete (e.g. a NoC request vanished
     * with retransmission disabled); the issuing thread must stall
     * forever and only a watchdog can reclaim it. */
    bool hang = false;
    /** Split transaction under the sharded mesh engine: the access
     * crosses a shard boundary and was posted to the epoch exchange
     * instead of executing. No result fields are valid; the issuing
     * thread parks until Machine::completeDeferred() delivers the
     * real outcome (keyed by @ref ticket) at the epoch barrier. */
    bool deferred = false;
    /** Identifies the posted exchange entry when deferred is set. */
    uint64_t ticket = 0;
    uint64_t startCycle = 0;    //!< when the access began service
    uint64_t completeCycle = 0; //!< when the result is available
    Word data;                  //!< loaded value (loads only)

    uint64_t
    latency() const
    {
        return completeCycle - startCycle;
    }
};

/** The shared steps of a timed memory port; see the file comment. */
template <class Home>
class AccessPath : public MemoryPort
{
  public:
    /**
     * Timed load through a guarded pointer. The pre-issue check is the
     * pointer check only; a fault costs zero memory cycles.
     * @param ptr   guarded pointer naming the address
     * @param size  1/2/4/8 bytes, naturally aligned
     * @param now   current cycle, for bank/port contention
     * @param elide_check skip the guarded-pointer access check under a
     *        verifier proof (translation/ECC still run)
     */
    MemAccess
    load(Word ptr, unsigned size, uint64_t now = 0,
         bool elide_check = false)
    {
        return access(ptr, Access::Load, size, now, Word{},
                      elide_check);
    }

    /** Timed store through a guarded pointer. An 8-byte store of a
     * tagged word stores the pointer intact; smaller stores clear the
     * destination word's tag. */
    MemAccess
    store(Word ptr, Word value, unsigned size, uint64_t now = 0,
          bool elide_check = false)
    {
        return access(ptr, Access::Store, size, now, value,
                      elide_check);
    }

    /** Timed instruction fetch (requires execute permission);
     * elide_check skips the per-fetch pointer check while the caller
     * holds an IP proof (isa::Thread::ipProven). */
    MemAccess
    fetch(Word ip, uint64_t now = 0, bool elide_check = false)
    {
        return access(ip, Access::InstFetch, 8, now, Word{},
                      elide_check);
    }

    // MemoryPort interface (delegates to the named methods above).
    MemAccess
    portLoad(Word ptr, unsigned size, uint64_t now,
             bool elide_check = false) override
    {
        return load(ptr, size, now, elide_check);
    }
    MemAccess
    portStore(Word ptr, Word value, unsigned size, uint64_t now,
              bool elide_check = false) override
    {
        return store(ptr, value, size, now, elide_check);
    }
    MemAccess
    portFetch(Word ip, uint64_t now, bool elide_check = false) override
    {
        return fetch(ip, now, elide_check);
    }
    void
    portPoke(uint64_t vaddr, Word w) override
    {
        pokeWord(vaddr, w);
    }
    Word
    portPeek(uint64_t vaddr) override
    {
        return peekWord(vaddr);
    }

    /**
     * Untimed functional translation of a virtual byte address, mapping
     * the page on demand unless it was unmapped; nullopt for an
     * unmapped page.
     */
    std::optional<uint64_t>
    translateAddr(uint64_t vaddr)
    {
        return home().tableFor(vaddr).translateAddr(vaddr);
    }

    /** Untimed functional word read (kernel/loader/debugger use);
     * an unmapped page reads as zero. */
    Word peekWord(uint64_t vaddr);

    /** Untimed functional word write (kernel/loader/debugger use). */
    void pokeWord(uint64_t vaddr, Word w);

    sim::StatGroup &stats() { return home().stats_; }

  protected:
    explicit AccessPath(const MemConfig &config);

    /** Registers the counters every port owns in Home's stats_; Home's
     * constructor calls it once its members exist. */
    void registerCounters();

    /**
     * The access after its issue gate: cache, translation, fill, the
     * tagged-data step, and the one place a finished access is
     * counted. A node resolves a deferred access from here.
     */
    MemAccess serve(Word ptr, Access kind, unsigned size, uint64_t now,
                    Word value);

    MemConfig config_;

    // Cached stat handles (stable for the life of stats_), so the
    // per-access hot path pays an increment, not a map lookup
    // (docs/OBSERVABILITY.md: never counter("...") per event).
    sim::Counter *hits_ = nullptr;
    /// loads/stores/fetches, indexed by Access.
    sim::Counter *completed_[3] = {};
    sim::Counter *accessFaults_ = nullptr;
    sim::Counter *unmappedFaults_ = nullptr;
    sim::Counter *eccCorrected_ = nullptr;
    sim::Counter *eccDetected_ = nullptr;
    /// Set by Home's constructor: registered in a lone machine's
    /// group, an unregistered per-instance counter in a node's.
    sim::Counter *walkTransients_ = nullptr;
    sim::Counter *walkRetryExhausted_ = nullptr;

  private:
    /** Pre-issue pointer check, issue gate, then serve(). */
    MemAccess access(Word ptr, Access kind, unsigned size, uint64_t now,
                     Word value, bool elide_check);

    /**
     * The miss path: translate (LTLB, then a walk with bounded retry
     * of transient failures), then Home's fill(). Sets @p pfn to the
     * frame the data is read at, and acc.completeCycle. @return false
     * when the access ended here (a fault in acc, or acc.hang).
     */
    bool miss(uint64_t vaddr, Access kind, unsigned bank, uint64_t now,
              uint64_t &t, uint64_t &pfn, MemAccess &acc);

    Home &home() { return static_cast<Home &>(*this); }
};

template <class Home>
AccessPath<Home>::AccessPath(const MemConfig &config) : config_(config)
{
    // A line's recorded frame must name the whole line.
    if (kPageBytes < config_.cache.lineBytes) {
        sim::fatal("memory system: page size %llu is smaller than "
                   "the cache line size %u; page invalidation would "
                   "be ill-defined",
                   static_cast<unsigned long long>(kPageBytes),
                   config_.cache.lineBytes);
    }
}

template <class Home>
void
AccessPath<Home>::registerCounters()
{
    sim::StatGroup &stats = home().stats_;
    hits_ = &stats.counter("hits");
    completed_[unsigned(Access::Load)] = &stats.counter("loads");
    completed_[unsigned(Access::Store)] = &stats.counter("stores");
    completed_[unsigned(Access::InstFetch)] = &stats.counter("fetches");
    accessFaults_ = &stats.counter("access_faults");
    unmappedFaults_ = &stats.counter("unmapped_faults");
    eccCorrected_ = &stats.counter("ecc_corrected");
    eccDetected_ = &stats.counter("ecc_detected");
}

template <class Home>
MemAccess
AccessPath<Home>::access(Word ptr, Access kind, unsigned size,
                         uint64_t now, Word value, bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    // Pre-issue pointer check: permission decoder + masked comparator,
    // no table access, no memory cycles (§2.2), and no distinction
    // between local and remote addresses. Skipped only when the
    // caller holds a verifier proof that the check cannot fire.
    if (!elide_check) {
        acc.fault = checkAccess(ptr, kind, size);
        if (acc.fault != Fault::None) {
            (*accessFaults_)++;
            return acc;
        }
    }
    if (!home().admit(ptr, kind, size, now, value, acc))
        return acc;
    return serve(ptr, kind, size, now, value);
}

template <class Home>
MemAccess
AccessPath<Home>::serve(Word ptr, Access kind, unsigned size,
                        uint64_t now, Word value)
{
    Home &h = home();
    MemAccess acc;
    acc.startCycle = now;
    const uint64_t vaddr = ptr.addr();
    const unsigned bank = h.cache_.bankOf(vaddr);
    const bool is_write = kind == Access::Store;

    const uint64_t start = h.start(bank, vaddr, now);
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
    // the fill install runs only when the miss path succeeds, so
    // fault paths leave the array untouched. A hit reads the frame
    // its line recorded at fill: only MemorySystem::unmapRange() takes
    // a frame away, and it invalidates the page's lines first.
    uint64_t pfn = 0;
    if (h.cache_.accessHit(vaddr, is_write, pfn)) {
        acc.cacheHit = true;
        acc.completeCycle = t;
        (*hits_)++;
        GP_TRACE(Cache, now, bank, "hit", "vaddr=0x%llx",
                 static_cast<unsigned long long>(vaddr));
    } else if (!miss(vaddr, kind, bank, now, t, pfn, acc)) {
        // A hung access never delivers its data, but it did not fault.
        if (acc.hang)
            (*completed_[unsigned(kind)])++;
        return acc;
    }

    const uint64_t paddr = (pfn << kPageShift) | (vaddr & (kPageBytes - 1));
    const CheckedWord cw =
        h.physFor(vaddr).access(is_write, paddr, size, value);
    acc.data = cw.word;
    if (cw.status == EccStatus::Corrected) {
        (*eccCorrected_)++;
        GP_TRACE(Fault, now, 0, "ecc-corrected", "paddr=0x%llx",
                 static_cast<unsigned long long>(paddr));
    } else if (cw.status == EccStatus::Detected) {
        // Uncorrectable: the word must not be consumed. Surface as a
        // memory-integrity machine fault.
        acc.fault = Fault::MemoryIntegrity;
        (*eccDetected_)++;
        GP_TRACE(Fault, now, 0, "ecc-detected", "paddr=0x%llx",
                 static_cast<unsigned long long>(paddr));
        return acc;
    }
    if (!acc.cacheHit)
        h.deliver(acc);
    (*completed_[unsigned(kind)])++;
    return acc;
}

template <class Home>
bool
AccessPath<Home>::miss(uint64_t vaddr, Access kind, unsigned bank,
                       uint64_t now, uint64_t &t, uint64_t &pfn,
                       MemAccess &acc)
{
    Home &h = home();
    const uint64_t vpn = vaddr >> kPageShift;
    const std::optional<uint64_t> cached = h.tlb_.lookup(vpn);
    t += config_.timing.tlbLookup;
    if (sim::Profiler::armed())
        sim::Profiler::instance().accSeg(sim::ProfComp::TlbWalk,
                                         config_.timing.tlbLookup);
    uint64_t frame;
    if (!cached) {
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
            if (h.walkTransient()) {
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
        acc.completeCycle = t;
        if (!walked) {
            acc.fault = Fault::MemoryIntegrity;
            (*walkRetryExhausted_)++;
            GP_TRACE(Fault, now, bank, "walk-retry-exhausted",
                     "vaddr=0x%llx vpn=0x%llx",
                     static_cast<unsigned long long>(vaddr),
                     static_cast<unsigned long long>(vpn));
            return false;
        }
        const std::optional<uint64_t> pa =
            h.tableFor(vaddr).translateAddr(vaddr);
        if (!pa) {
            acc.fault = Fault::UnmappedAddress;
            (*unmappedFaults_)++;
            GP_TRACE(Fault, now, bank, "unmapped-address",
                     "vaddr=0x%llx vpn=0x%llx",
                     static_cast<unsigned long long>(vaddr),
                     static_cast<unsigned long long>(vpn));
            return false;
        }
        pfn = *pa >> kPageShift;
        frame = pfn;
        h.tlb_.insert(vpn, pfn);
        GP_TRACE(TLB, now, bank, "walk", "vpn=0x%llx pfn=0x%llx",
                 static_cast<unsigned long long>(vpn),
                 static_cast<unsigned long long>(pfn));
    } else {
        // The line records the page table's frame, not the TLB's: a
        // corrupted TLB entry misdirects only the access that used
        // it, never the hits on the line it filled.
        const std::optional<uint64_t> pa =
            h.tableFor(vaddr).translateAddr(vaddr);
        if (!pa)
            sim::panic("LTLB holds unmapped page 0x%llx",
                       static_cast<unsigned long long>(vpn));
        pfn = *cached;
        frame = *pa >> kPageShift;
        GP_TRACE(TLB, now, bank, "hit", "vpn=0x%llx",
                 static_cast<unsigned long long>(vpn));
    }
    if (!h.fill(vaddr, kind, frame, bank, now, t, acc))
        return false;
    acc.completeCycle = t;
    return true;
}

template <class Home>
Word
AccessPath<Home>::peekWord(uint64_t vaddr)
{
    const std::optional<uint64_t> pa = translateAddr(vaddr);
    return pa ? home().physFor(vaddr).readWord(*pa) : Word{};
}

template <class Home>
void
AccessPath<Home>::pokeWord(uint64_t vaddr, Word w)
{
    const std::optional<uint64_t> pa = translateAddr(vaddr);
    if (!pa)
        sim::fatal("pokeWord to unmapped address 0x%llx",
                   static_cast<unsigned long long>(vaddr));
    home().physFor(vaddr).writeWord(*pa, w);
}

} // namespace gp::mem

#endif // GP_MEM_ACCESS_PATH_H
