/**
 * @file
 * Per-node memory system of the multicomputer (paper §3).
 *
 * The M-Machine's 54-bit space is global across nodes: the high
 * address bits name the home node, and a guarded pointer to remote
 * memory is *exactly* the same 64-bit word as a local one — no proxy
 * objects, no message-passing stubs, no per-node capability tables.
 *
 * Each node has its own banked virtually-addressed cache and LTLB;
 * the page table and tagged physical storage are global (the home
 * node owns the data; the model keeps them in one shared structure).
 * A miss whose line lives on a remote home pays a mesh round trip —
 * one request flit out, a cache line of flits back — on top of the
 * remote memory access.
 *
 * Modelling note: the per-node cache is behavioural (timing) only;
 * data functionally reads and writes the global store, so stores are
 * immediately visible to every node as if write-through with ideal
 * coherence. Coherence-protocol *timing* (invalidations, upgrades)
 * is outside this reproduction's scope — the paper predates and is
 * orthogonal to it.
 */

#ifndef GP_NOC_NODE_MEMORY_H
#define GP_NOC_NODE_MEMORY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gp/ops.h"
#include "mem/memory_system.h"
#include "noc/mesh.h"
#include "noc/retransmit.h"

namespace gp::noc {

/// VA bits 53..48 name the home node of an address.
inline constexpr unsigned kNodeShift = 48;
inline constexpr uint64_t kNodeMask = 0x3f;
/// The most nodes a mesh can have: one per home-node id.
inline constexpr unsigned kMaxNodes = unsigned(kNodeMask) + 1;

/** @return the home node id encoded in a virtual address. */
inline unsigned
homeNode(uint64_t vaddr)
{
    return unsigned((vaddr >> kNodeShift) & kNodeMask);
}

/** @return the base virtual address of a node's partition. */
inline uint64_t
nodeBase(unsigned node)
{
    return uint64_t(node) << kNodeShift;
}

/**
 * Globally shared backing state: one 54-bit space, partitioned by
 * home node. Each home node owns a slice (its page table + tagged
 * physical storage), matching the paper's model where the home node
 * owns the data. The split also removes every cross-node write to
 * shared translation state, which is what lets the sharded mesh
 * engine simulate nodes on different host threads: a node only
 * touches a remote slice at the epoch barrier (single-threaded,
 * canonical order), never during the parallel phase.
 *
 * Slices are created lazily; creation is mutex-guarded and the slice
 * pointer is published with release/acquire so a pre-created slice
 * can be read from any thread.
 */
class GlobalMemory
{
  public:
    /// One home node's share of the space.
    struct Slice
    {
        mem::PageTable pageTable{4096};
        mem::TaggedMemory phys;
    };

    GlobalMemory() = default;
    GlobalMemory(const GlobalMemory &) = delete;
    GlobalMemory &operator=(const GlobalMemory &) = delete;

    ~GlobalMemory()
    {
        for (auto &s : slices_)
            delete s.load(std::memory_order_acquire);
    }

    /** The slice of the home node owning @p vaddr. */
    Slice &sliceFor(uint64_t vaddr) { return slice(homeNode(vaddr)); }

    /** The slice of home node @p home (created on first use). */
    Slice &
    slice(unsigned home)
    {
        Slice *s = slices_[home & kNodeMask].load(
            std::memory_order_acquire);
        if (s != nullptr)
            return *s;
        return makeSlice(home & unsigned(kNodeMask));
    }

    /** Hardening code applied to every slice, existing and future. */
    void
    setEccMode(mem::EccMode mode)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ecc_ = mode;
        for (auto &s : slices_)
            if (Slice *p = s.load(std::memory_order_acquire))
                p->phys.setEccMode(mode);
    }

  private:
    Slice &
    makeSlice(unsigned home)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Slice *s = slices_[home].load(std::memory_order_relaxed);
        if (s == nullptr) {
            s = new Slice;
            s->phys.setEccMode(ecc_);
            slices_[home].store(s, std::memory_order_release);
        }
        return *s;
    }

    std::array<std::atomic<Slice *>, kNodeMask + 1> slices_{};
    std::mutex mu_;
    mem::EccMode ecc_ = mem::EccMode::None;
};

/**
 * One deferred cross-shard memory access, parked in the epoch
 * exchange until the barrier resolves it. Carries everything
 * NodeMemory::resolveDeferred() needs to run the access exactly as
 * the synchronous path would have at the issue cycle.
 */
struct DeferredAccess
{
    uint64_t ticket = 0; //!< unique per issuing node
    unsigned node = 0;   //!< issuing node
    uint64_t cycle = 0;  //!< issue cycle (canonical sort key)
    Word ptr;            //!< already-checked guarded pointer
    Access kind = Access::Load;
    unsigned size = 0;
    Word value; //!< store payload
};

/**
 * Two-phase message exchange of the sharded mesh engine. During the
 * parallel phase each node appends its cross-shard accesses to its
 * own lane (no sharing, no locks); at the epoch barrier drain()
 * returns everything in the canonical (issue cycle, node, ticket)
 * order, which is what makes results independent of the host-thread
 * count.
 */
class EpochExchange
{
  public:
    explicit EpochExchange(unsigned nodes) : lanes_(nodes) {}

    void post(const DeferredAccess &op) { lanes_[op.node].push_back(op); }

    /** Move out every posted access in canonical order. */
    std::vector<DeferredAccess>
    drain()
    {
        std::vector<DeferredAccess> ops;
        drain(ops);
        return ops;
    }

    /** The same into @p ops (cleared first), reusing its storage. */
    void drain(std::vector<DeferredAccess> &ops);

  private:
    std::vector<std::vector<DeferredAccess>> lanes_;
};

/** One node's cache/TLB view of the global space. */
class NodeMemory : public mem::MemoryPort
{
  public:
    NodeMemory(unsigned node, Mesh &mesh, GlobalMemory &global,
               const mem::MemConfig &config = mem::MemConfig{},
               const RetransConfig &retrans = RetransConfig{});

    /** Timed load through a guarded pointer (local or remote);
     * elide_check skips the guarded-pointer access check under a
     * verifier proof (translation/NoC behaviour unchanged). */
    mem::MemAccess
    load(Word ptr, unsigned size, uint64_t now = 0,
         bool elide_check = false)
    {
        return access(ptr, Access::Load, size, now, Word{},
                      elide_check);
    }

    /** Timed store through a guarded pointer (local or remote). */
    mem::MemAccess
    store(Word ptr, Word value, unsigned size, uint64_t now = 0,
          bool elide_check = false)
    {
        return access(ptr, Access::Store, size, now, value,
                      elide_check);
    }

    /** Timed instruction fetch (local or remote code!); elide_check
     * skips the per-fetch pointer check while the caller holds an IP
     * proof (isa::Thread::ipProven). */
    mem::MemAccess
    fetch(Word ip, uint64_t now = 0, bool elide_check = false)
    {
        return access(ip, Access::InstFetch, 8, now, Word{},
                      elide_check);
    }

    // MemoryPort interface — a Machine runs against a node directly.
    mem::MemAccess
    portLoad(Word ptr, unsigned size, uint64_t now,
             bool elide_check = false) override
    {
        return load(ptr, size, now, elide_check);
    }
    mem::MemAccess
    portStore(Word ptr, Word value, unsigned size, uint64_t now,
              bool elide_check = false) override
    {
        return store(ptr, value, size, now, elide_check);
    }
    mem::MemAccess
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

    /** Untimed functional write (loader/host use). */
    void pokeWord(uint64_t vaddr, Word w);

    /** Untimed functional read. */
    Word peekWord(uint64_t vaddr);

    sim::StatGroup &stats() { return stats_; }

    /** Accesses that faulted NodeUnreachable (dead home / no route). */
    uint64_t
    unreachableFaults() const
    {
        return statUnreachableFaults_ ? statUnreachableFaults_->value()
                                      : 0;
    }

    /**
     * Attach (or detach, with nullptr) the sharded mesh engine's
     * epoch exchange. With an exchange attached, any timed access
     * whose home is a different node is posted to the exchange and
     * returned as deferred instead of executing; the engine resolves
     * it at the epoch barrier via resolveDeferred(). Without one
     * (the default) remote accesses execute synchronously as before.
     */
    void attachExchange(EpochExchange *exchange)
    {
        exchange_ = exchange;
    }

    /**
     * Execute a previously deferred access (epoch barrier only).
     * Runs the post-check access path at the recorded issue cycle —
     * the pre-issue pointer check was already consumed at issue time
     * and is not repeated.
     */
    mem::MemAccess resolveDeferred(const DeferredAccess &op);

  private:
    mem::MemAccess access(Word ptr, Access kind, unsigned size,
                          uint64_t now, Word store_value,
                          bool elide_check = false);

    /** The access after its pre-issue check, and the one place a
     * finished access is counted — shared by the synchronous path and
     * resolveDeferred(). */
    mem::MemAccess accessBody(Word ptr, Access kind, unsigned size,
                              uint64_t now, Word store_value);

    /** Cache, translation, NoC legs and the tagged-data step. */
    mem::MemAccess timedAccess(Word ptr, Access kind, unsigned size,
                               uint64_t now, Word store_value);

    /**
     * One NoC leg of a remote miss, the request or the line reply:
     * moves @p flits flits from @p from to @p to at @p start through
     * the link protocol into @p d, and itemises the leg in the
     * profile (Retransmit = the retry timeouts, Noc = the rest). A
     * leg that did not deliver ends the access in @p acc: the typed
     * NodeUnreachable fault, a MemoryIntegrity fault with the
     * protocol on, or a hang with it off. A corrupted request counts
     * as lost. @return false when the access ended here.
     */
    bool leg(unsigned from, unsigned to, uint64_t start,
             unsigned flits, Delivery &d, mem::MemAccess &acc);

    /** Count one NodeUnreachable fault (registers the counter on the
     * first one). */
    void countUnreachable();

    unsigned node_;
    Mesh &mesh_;
    GlobalMemory &global_;
    EpochExchange *exchange_ = nullptr;
    uint64_t nextTicket_ = 0;
    mem::MemConfig config_;
    mem::Cache cache_;
    mem::Tlb tlb_;
    Retransmitter retrans_;
    sim::StatGroup stats_;

    // Cached stat handles (stable for the life of stats_): access()
    // is the per-reference hot path of every multicomputer run, so it
    // pays plain increments, never string-keyed map lookups
    // (docs/OBSERVABILITY.md).
    sim::Counter *hits_ = nullptr;
    sim::Counter *localMisses_ = nullptr;
    sim::Counter *remoteMisses_ = nullptr;
    sim::Counter *remoteLatency_ = nullptr;
    /// loads/stores/fetches, indexed by Access.
    sim::Counter *completed_[3] = {};
    sim::Counter *accessFaults_ = nullptr;
    sim::Counter *unmappedFaults_ = nullptr;
    sim::Counter *staleUnmappedFaults_ = nullptr;
    sim::Counter *nocDeliveryFailures_ = nullptr;
    sim::Counter *nocHangs_ = nullptr;
    sim::Counter *nocReplyCorruptions_ = nullptr;
    sim::Counter *eccCorrected_ = nullptr;
    sim::Counter *eccDetected_ = nullptr;
    /// Registered lazily on the first NodeUnreachable (cold path):
    /// the sharded-mesh signature mixes every node counter, so a
    /// failure-free run must expose exactly the counter set the
    /// blessed baselines were pinned to.
    sim::Counter *statUnreachableFaults_ = nullptr;
};

} // namespace gp::noc

#endif // GP_NOC_NODE_MEMORY_H
