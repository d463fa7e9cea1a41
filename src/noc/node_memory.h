/**
 * @file
 * Per-node memory port of the multicomputer (paper §3).
 *
 * The M-Machine's 54-bit space is global across nodes: the high
 * address bits name the home node, and a guarded pointer to remote
 * memory is *exactly* the same 64-bit word as a local one — no proxy
 * objects, no message-passing stubs, no per-node capability tables.
 *
 * Each node has its own banked virtually-addressed cache and LTLB and
 * runs the same access path as a lone machine (mem::AccessPath:
 * pointer check, virtual cache probe, translation only on a miss,
 * tagged-data step). The page table and tagged physical storage of an
 * address belong to its home node's slice of the global memory. What
 * only a node has is the home leg: an issue gate (a home outside the
 * mesh faults NodeUnreachable at issue; under the sharded engine a
 * remote home is deferred to the epoch exchange), and the line fill,
 * which for a remote home pays a mesh round trip — one request flit
 * out, a cache line of flits back — on top of the memory access
 * there. A node charges none of a lone machine's bank and
 * external-port model yet: no arbitration, no ECC fill cycle and no
 * writeback cost (tests/noc/test_node_memory_parity.cc pins each
 * difference).
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
#include "mem/access_path.h"
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
    /// One home node's share of the space. Its page table is
    /// read-only from outside, as MemorySystem::pageTable() is: only a
    /// node's access path maps a page (on demand), and nothing can
    /// unmap one behind the frames its cache lines recorded.
    class Slice
    {
      public:
        const mem::PageTable &pageTable() const { return pageTable_; }

        mem::TaggedMemory phys;

      private:
        friend class NodeMemory;
        mem::PageTable pageTable_{mem::kPageBytes};
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
class NodeMemory : public mem::AccessPath<NodeMemory>
{
  public:
    NodeMemory(unsigned node, Mesh &mesh, GlobalMemory &global,
               const mem::MemConfig &config = mem::MemConfig{},
               const RetransConfig &retrans = RetransConfig{});

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
    friend class mem::AccessPath<NodeMemory>;

    // AccessPath hooks (see mem/access_path.h).
    bool admit(Word ptr, Access kind, unsigned size, uint64_t now,
               Word value, mem::MemAccess &acc);
    uint64_t start(unsigned, uint64_t, uint64_t now) { return now; }
    bool walkTransient() { return false; }
    bool fill(uint64_t vaddr, Access kind, uint64_t frame, unsigned bank,
              uint64_t now, uint64_t &t, mem::MemAccess &acc);
    void deliver(mem::MemAccess &acc);
    mem::PageTable &
    tableFor(uint64_t vaddr)
    {
        return global_.sliceFor(vaddr).pageTable_;
    }
    mem::TaggedMemory &
    physFor(uint64_t vaddr)
    {
        return global_.sliceFor(vaddr).phys;
    }

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
    // In stat-group registration order: cache, tlb, nodeN_retrans,
    // nodeN.
    mem::Cache cache_;
    mem::Tlb tlb_;
    Retransmitter retrans_;
    sim::StatGroup stats_;
    /// The last fill's line reply arrived mangled on a raw link:
    /// deliver() flips one bit of the loaded word.
    bool flipReply_ = false;

    // Cached stat handles of the node-only counters (the shared ones
    // live in AccessPath): plain increments on the per-reference
    // path, never string-keyed map lookups (docs/OBSERVABILITY.md).
    sim::Counter *localMisses_ = nullptr;
    sim::Counter *remoteMisses_ = nullptr;
    sim::Counter *remoteLatency_ = nullptr;
    sim::Counter *nocDeliveryFailures_ = nullptr;
    sim::Counter *nocHangs_ = nullptr;
    sim::Counter *nocReplyCorruptions_ = nullptr;
    /// A node's walks never fail transiently, so it registers neither
    /// walk counter; these per-instance counters stand in (never a
    /// shared static: shard workers run nodes in parallel).
    sim::Counter walkTransientsUnregistered_;
    sim::Counter walkRetryExhaustedUnregistered_;
    /// Registered lazily on the first NodeUnreachable (cold path):
    /// the sharded-mesh signature mixes every node counter, so a
    /// failure-free run must expose exactly the counter set the
    /// blessed baselines were pinned to.
    sim::Counter *statUnreachableFaults_ = nullptr;
};

} // namespace gp::noc

extern template class gp::mem::AccessPath<gp::noc::NodeMemory>;

#endif // GP_NOC_NODE_MEMORY_H
