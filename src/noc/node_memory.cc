#include "noc/node_memory.h"

#include <algorithm>

#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/profile.h"

namespace gp::noc {

void
EpochExchange::drain(std::vector<DeferredAccess> &ops)
{
    ops.clear();
    for (auto &lane : lanes_) {
        if (lane.empty())
            continue;
        ops.insert(ops.end(), lane.begin(), lane.end());
        lane.clear();
    }
    // Canonical order: issue cycle, then issuing node, then posting
    // order within the node. Identical for every host-thread count.
    std::sort(ops.begin(), ops.end(),
              [](const DeferredAccess &a, const DeferredAccess &b) {
                  if (a.cycle != b.cycle)
                      return a.cycle < b.cycle;
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.ticket < b.ticket;
              });
}

NodeMemory::NodeMemory(unsigned node, Mesh &mesh, GlobalMemory &global,
                       const mem::MemConfig &config,
                       const RetransConfig &retrans)
    : node_(node),
      mesh_(mesh),
      global_(global),
      config_(config),
      cache_(config.cache),
      tlb_(config.tlbEntries),
      retrans_(mesh, retrans,
               "node" + std::to_string(node) + "_retrans"),
      stats_("node" + std::to_string(node))
{
    if (node >= mesh.nodeCount())
        sim::fatal("node id %u outside the mesh", node);
    // Pre-create this node's own slice: under the sharded engine the
    // parallel phase may read the slice pointer from any host thread,
    // so it must exist before the workers start.
    global_.slice(node);
    // Cache the stat handles once; access() below runs per memory
    // reference and must never pay a string-keyed map lookup
    // (docs/OBSERVABILITY.md).
    hits_ = &stats_.counter("hits");
    localMisses_ = &stats_.counter("local_misses");
    remoteMisses_ = &stats_.counter("remote_misses");
    remoteLatency_ = &stats_.counter("remote_latency");
    completed_[unsigned(Access::Load)] = &stats_.counter("loads");
    completed_[unsigned(Access::Store)] = &stats_.counter("stores");
    completed_[unsigned(Access::InstFetch)] =
        &stats_.counter("fetches");
    accessFaults_ = &stats_.counter("access_faults");
    unmappedFaults_ = &stats_.counter("unmapped_faults");
    staleUnmappedFaults_ = &stats_.counter("stale_unmapped_faults");
    nocDeliveryFailures_ = &stats_.counter("noc_delivery_failures");
    nocHangs_ = &stats_.counter("noc_hangs");
    nocReplyCorruptions_ = &stats_.counter("noc_reply_corruptions");
    eccCorrected_ = &stats_.counter("ecc_corrected");
    eccDetected_ = &stats_.counter("ecc_detected");
}

mem::MemAccess
NodeMemory::access(Word ptr, Access kind, unsigned size, uint64_t now,
                   Word store_value, bool elide_check)
{
    // Identical pre-issue check to the single-node machine: the
    // pointer alone, no tables — and crucially no distinction between
    // local and remote addresses. Skipped only under a verifier proof
    // that the check cannot fire. Runs at issue time even when the
    // access itself is deferred below: a fault costs zero memory
    // cycles and never leaves the issuing shard.
    mem::MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    if (!elide_check) {
        acc.fault = checkAccess(ptr, kind, size);
        if (acc.fault != Fault::None) {
            (*accessFaults_)++;
            return acc;
        }
    }

    // A pointer may cover homes the mesh does not have (a full-space
    // segment covers all 64): such an access ends at issue with the
    // typed fault, before it can reach a link or a slice.
    const unsigned home = homeNode(ptr.addr());
    if (home >= mesh_.nodeCount()) {
        acc.fault = Fault::NodeUnreachable;
        countUnreachable();
        return acc;
    }

    // Sharded mesh engine: an access whose home is another node may
    // touch that node's slice (and the shared mesh links), so it is
    // parked in the epoch exchange and resolved at the barrier in
    // canonical order — the issuing thread sees a split transaction.
    if (exchange_ != nullptr && home != node_) {
        DeferredAccess op;
        op.ticket = ++nextTicket_;
        op.node = node_;
        op.cycle = now;
        op.ptr = ptr;
        op.kind = kind;
        op.size = size;
        op.value = store_value;
        exchange_->post(op);
        acc.deferred = true;
        acc.ticket = op.ticket;
        return acc;
    }

    return accessBody(ptr, kind, size, now, store_value);
}

void
NodeMemory::countUnreachable()
{
    if (!statUnreachableFaults_)
        statUnreachableFaults_ = &stats_.counter("node_unreachable_faults");
    (*statUnreachableFaults_)++;
}

mem::MemAccess
NodeMemory::resolveDeferred(const DeferredAccess &op)
{
    // Start the op on an empty profiler scratch timeline, so the
    // issuing machine folds exactly this op's segments into its
    // record — never those of an op resolved before it.
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBegin(
            op.kind == Access::InstFetch ? sim::ProfComp::IFetch
                                         : sim::ProfComp::DCache);
    return accessBody(op.ptr, op.kind, op.size, op.cycle, op.value);
}

mem::MemAccess
NodeMemory::accessBody(Word ptr, Access kind, unsigned size,
                       uint64_t now, Word store_value)
{
    mem::MemAccess acc = timedAccess(ptr, kind, size, now, store_value);
    // The one point every finished access passes, synchronous or
    // resolved at the barrier. A hung access counts: it did not fault.
    if (acc.fault == Fault::None)
        (*completed_[unsigned(kind)])++;
    return acc;
}

mem::MemAccess
NodeMemory::timedAccess(Word ptr, Access kind, unsigned size,
                        uint64_t now, Word store_value)
{
    mem::MemAccess acc;
    acc.startCycle = now;

    const uint64_t vaddr = ptr.addr();
    GlobalMemory::Slice &home_slice = global_.sliceFor(vaddr);
    const bool is_write = kind == Access::Store;
    bool corrupt_reply = false;
    uint64_t t = now + config_.timing.cacheHit;
    if (sim::Profiler::armed())
        sim::Profiler::instance().accBase(config_.timing.cacheHit);

    // Combined probe + hit-update: one tag search instead of two,
    // with zero state change on a miss so fault paths below leave the
    // cache exactly as a probe would have.
    if (cache_.accessHit(vaddr, is_write)) {
        acc.cacheHit = true;
        (*hits_)++;
    } else {
        // Translate (local LTLB; the page table is the home slice's).
        const uint64_t vpn = home_slice.pageTable.vpn(vaddr);
        t += config_.timing.tlbLookup;
        if (sim::Profiler::armed())
            sim::Profiler::instance().accSeg(
                sim::ProfComp::TlbWalk, config_.timing.tlbLookup);
        if (!tlb_.lookup(vpn)) {
            t += config_.timing.ptWalk;
            if (sim::Profiler::armed())
                sim::Profiler::instance().accSeg(
                    sim::ProfComp::TlbWalk, config_.timing.ptWalk);
            auto pa = home_slice.pageTable.translateAddr(vaddr);
            if (!pa) {
                acc.fault = Fault::UnmappedAddress;
                acc.completeCycle = t;
                (*unmappedFaults_)++;
                return acc;
            }
            tlb_.insert(vpn, *pa >> home_slice.pageTable.pageShift());
        }

        const unsigned home = homeNode(vaddr);
        if (home == node_) {
            t += config_.timing.extMemAccess;
            if (sim::Profiler::armed())
                sim::Profiler::instance().accBase(
                    config_.timing.extMemAccess);
            (*localMisses_)++;
        } else {
            // Request flit to the home node, memory access there,
            // line-sized reply back: two legs of the one step.
            Delivery rq, rp;
            if (!leg(node_, home, t, 1, rq, acc))
                return acc;
            const uint64_t served =
                rq.cycle + config_.timing.extMemAccess;
            if (sim::Profiler::armed())
                sim::Profiler::instance().accBase(
                    config_.timing.extMemAccess);
            if (!leg(home, node_, served, config_.cache.lineBytes / 8,
                     rp, acc))
                return acc;
            // A mangled reply payload on a raw link: silent
            // corruption of the loaded word, applied after the
            // functional read below.
            corrupt_reply = rp.corrupted && kind != Access::Store;
            t = rp.cycle;
            (*remoteMisses_)++;
            (*remoteLatency_) += t - now;
        }
        // Install the line only now that the fill actually arrived.
        // A fetch that died on the NoC (unreachable home, lost
        // delivery) must leave the cache untouched — a resident line
        // would make the next access to the dead home silently "hit"
        // and bypass the typed-unreachable path entirely.
        cache_.access(vaddr, is_write);
    }

    // Functional data access against the home slice's backing store.
    auto pa = home_slice.pageTable.translateAddr(vaddr);
    if (!pa) {
        // A line can legitimately stay resident in this node's cache
        // after the home node unmapped/revoked the page — there is
        // no cross-node invalidation in this model. That is a stale
        // mapping, not a simulator bug: surface it as a detected
        // integrity fault on the access.
        acc.fault = Fault::MemoryIntegrity;
        acc.completeCycle = t;
        (*staleUnmappedFaults_)++;
        return acc;
    }
    const mem::CheckedWord cw = home_slice.phys.access(
        kind == Access::Store, *pa, size, store_value);
    if (cw.status == mem::EccStatus::Detected) {
        acc.fault = Fault::MemoryIntegrity;
        acc.completeCycle = t;
        (*eccDetected_)++;
        return acc;
    }
    if (cw.status == mem::EccStatus::Corrected)
        (*eccCorrected_)++;
    acc.data = cw.word;
    if (corrupt_reply) {
        // One bit of the delivered word flips in flight; bit 64 is
        // the tag — the NoC capability-forgery channel.
        auto &inj = sim::FaultInjector::instance();
        const unsigned bit =
            unsigned(inj.drawBelow(sim::FaultSite::NocCorrupt, 65));
        const uint64_t bits =
            bit < 64 ? acc.data.bits() ^ (uint64_t(1) << bit)
                     : acc.data.bits();
        const bool tag = bit == 64 ? !acc.data.isPointer()
                                   : acc.data.isPointer();
        acc.data =
            tag ? Word::fromRawPointerBits(bits) : Word::fromInt(bits);
        (*nocReplyCorruptions_)++;
    }

    acc.completeCycle = t;
    return acc;
}

bool
NodeMemory::leg(unsigned from, unsigned to, uint64_t start,
                unsigned flits, Delivery &d, mem::MemAccess &acc)
{
    d = retrans_.transfer(from, to, start, flits);
    if (sim::Profiler::armed()) {
        auto &prof = sim::Profiler::instance();
        prof.accSeg(sim::ProfComp::Retransmit, d.retryCycles);
        prof.accSeg(sim::ProfComp::Noc,
                    d.cycle - start - d.retryCycles);
    }
    if (d.unreachable) {
        // No surviving route between the node and the home (fail-stop
        // death or a partitioning link failure, possibly landing
        // mid-access). The network interface *knows* — with the
        // protocol on, the full timeout/backoff retry budget was
        // burned first; raw links learn from the route table
        // immediately. A typed fault either way, never a hang.
        acc.fault = Fault::NodeUnreachable;
        acc.completeCycle = d.cycle;
        countUnreachable();
        return false;
    }
    // A mangled request never parses at the home node: as lost as a
    // dropped one. A mangled reply still arrives; the caller decides.
    const bool request = from == node_;
    if (d.delivered && !(request && d.corrupted))
        return true;
    // With the protocol on a lost message is a *detected* failure;
    // without it, nothing will ever answer — the access hangs.
    acc.completeCycle = d.cycle;
    if (retrans_.config().enabled) {
        acc.fault = Fault::MemoryIntegrity;
        (*nocDeliveryFailures_)++;
    } else {
        acc.hang = true;
        (*nocHangs_)++;
    }
    return false;
}

void
NodeMemory::pokeWord(uint64_t vaddr, Word w)
{
    GlobalMemory::Slice &home_slice = global_.sliceFor(vaddr);
    auto pa = home_slice.pageTable.translateAddr(vaddr);
    if (!pa)
        sim::fatal("pokeWord: unmapped global address");
    home_slice.phys.writeWord(*pa, w);
}

Word
NodeMemory::peekWord(uint64_t vaddr)
{
    GlobalMemory::Slice &home_slice = global_.sliceFor(vaddr);
    auto pa = home_slice.pageTable.translateAddr(vaddr);
    return pa ? home_slice.phys.readWord(*pa) : Word{};
}

} // namespace gp::noc
