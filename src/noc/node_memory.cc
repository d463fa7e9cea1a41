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
    : AccessPath(config),
      node_(node),
      mesh_(mesh),
      global_(global),
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
    registerCounters();
    localMisses_ = &stats_.counter("local_misses");
    remoteMisses_ = &stats_.counter("remote_misses");
    remoteLatency_ = &stats_.counter("remote_latency");
    nocDeliveryFailures_ = &stats_.counter("noc_delivery_failures");
    nocHangs_ = &stats_.counter("noc_hangs");
    nocReplyCorruptions_ = &stats_.counter("noc_reply_corruptions");
    // Never counted: no code unmaps a slice page, and a hit uses the
    // frame its line recorded. Registered anyway, because
    // ShardedMesh::signature() hashes every node counter in name
    // order, so the blessed signatures pin the counter set.
    (void)&stats_.counter("stale_unmapped_faults");
    walkTransients_ = &walkTransientsUnregistered_;
    walkRetryExhausted_ = &walkRetryExhaustedUnregistered_;
}

bool
NodeMemory::admit(Word ptr, Access kind, unsigned size, uint64_t now,
                  Word value, mem::MemAccess &acc)
{
    // A pointer may cover homes the mesh does not have (a full-space
    // segment covers all 64): such an access ends at issue with the
    // typed fault, before it can reach a link or a slice.
    const unsigned home = homeNode(ptr.addr());
    if (home >= mesh_.nodeCount()) {
        acc.fault = Fault::NodeUnreachable;
        countUnreachable();
        return false;
    }

    // Sharded mesh engine: an access whose home is another node may
    // touch that node's slice (and the shared mesh links), so it is
    // parked in the epoch exchange and resolved at the barrier in
    // canonical order — the issuing thread sees a split transaction.
    // The pointer check already ran: a fault costs zero memory cycles
    // and never leaves the issuing shard.
    if (exchange_ != nullptr && home != node_) {
        DeferredAccess op;
        op.ticket = ++nextTicket_;
        op.node = node_;
        op.cycle = now;
        op.ptr = ptr;
        op.kind = kind;
        op.size = size;
        op.value = value;
        exchange_->post(op);
        acc.deferred = true;
        acc.ticket = op.ticket;
        return false;
    }
    return true;
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
    return serve(op.ptr, op.kind, op.size, op.cycle, op.value);
}

bool
NodeMemory::fill(uint64_t vaddr, Access kind, uint64_t frame, unsigned,
                 uint64_t now, uint64_t &t, mem::MemAccess &acc)
{
    const unsigned home = homeNode(vaddr);
    flipReply_ = false;
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
            return false;
        const uint64_t served = rq.cycle + config_.timing.extMemAccess;
        if (sim::Profiler::armed())
            sim::Profiler::instance().accBase(
                config_.timing.extMemAccess);
        if (!leg(home, node_, served, config_.cache.lineBytes / 8, rp,
                 acc))
            return false;
        // A mangled reply payload on a raw link: silent corruption of
        // the loaded word, applied after the data step.
        flipReply_ = rp.corrupted && kind != Access::Store;
        t = rp.cycle;
        (*remoteMisses_)++;
        (*remoteLatency_) += t - now;
    }
    // Install the line only now that the fill actually arrived. A
    // fetch that died on the NoC (unreachable home, lost delivery)
    // must leave the cache untouched — a resident line would make the
    // next access to the dead home silently "hit" and bypass the
    // typed-unreachable path entirely.
    cache_.access(vaddr, kind == Access::Store, 0, frame);
    return true;
}

void
NodeMemory::deliver(mem::MemAccess &acc)
{
    if (!flipReply_)
        return;
    // One bit of the delivered word flips in flight; bit 64 is the
    // tag — the NoC capability-forgery channel.
    auto &inj = sim::FaultInjector::instance();
    const unsigned bit =
        unsigned(inj.drawBelow(sim::FaultSite::NocCorrupt, 65));
    const uint64_t bits = bit < 64 ? acc.data.bits() ^ (uint64_t(1) << bit)
                                   : acc.data.bits();
    const bool tag =
        bit == 64 ? !acc.data.isPointer() : acc.data.isPointer();
    acc.data = tag ? Word::fromRawPointerBits(bits) : Word::fromInt(bits);
    (*nocReplyCorruptions_)++;
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

} // namespace gp::noc

template class gp::mem::AccessPath<gp::noc::NodeMemory>;
