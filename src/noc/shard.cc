#include "noc/shard.h"

#include <algorithm>
#include <ostream>

#include "sim/faultinject.h"
#include "sim/log.h"
#include "sim/profile.h"
#include "sim/trace.h"

namespace gp::noc {

ShardedMesh::ShardedMesh(const ShardConfig &config)
    : config_(config),
      mesh_(config.mesh),
      exchange_(mesh_.nodeCount())
{
    const unsigned nodes = mesh_.nodeCount();
    if (nodes == 0)
        sim::fatal("sharded mesh: empty mesh");
    if (nodes > kMaxNodes)
        sim::fatal("sharded mesh: %u nodes, but VA bits 53..48 name at "
                   "most %u home nodes",
                   nodes, kMaxNodes);

    global_.setEccMode(config_.node.ecc);

    const isa::MachineConfig &mcfg = config_.machine;

    nodes_.reserve(nodes);
    machines_.reserve(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        nodes_.push_back(std::make_unique<NodeMemory>(
            n, mesh_, global_, config_.node, config_.retrans));
        nodes_.back()->attachExchange(&exchange_);
        machines_.push_back(
            std::make_unique<isa::Machine>(mcfg, *nodes_.back()));
        machines_.back()->setProfileSlotBase(
            n * mcfg.clusters * mcfg.threadsPerCluster);
    }

    // Lookahead: an epoch lasts the minimum inter-node message
    // latency. A longer one could make a message due before the
    // barrier that delivers it. The horizon fixes when split
    // transactions complete, so it is part of the canonical schedule.
    horizon_ = std::max<uint64_t>(1, mesh_.minMessageLatency());

    hostThreads_ = std::max(1u, std::min(config_.hostThreads, nodes));

    // Contiguous node ranges per shard, sized as evenly as possible.
    // Contiguity matters: VA bits 53..48 are the home node, so a
    // shard is also a contiguous slice of the address space.
    const unsigned base = nodes / hostThreads_;
    const unsigned rem = nodes % hostThreads_;
    unsigned first = 0;
    for (unsigned s = 0; s < hostThreads_; ++s) {
        const unsigned len = base + (s < rem ? 1 : 0);
        shardRange_.emplace_back(first, first + len);
        first += len;
    }

    sched_.assign(nodes, NodeSched{});
    for (unsigned s = 0; s < hostThreads_; ++s) {
        shardLive_.push_back(shardRange_[s].second - shardRange_[s].first);
        shardStats_.push_back(std::make_unique<sim::StatGroup>(
            "shard" + std::to_string(s)));
        sim::StatGroup &g = *shardStats_.back();
        shardCounters_.push_back({&g.counter("nodes"),
                                  &g.counter("busy_cycles"),
                                  &g.counter("instructions")});
    }
    exportShardStats();

    if (hostThreads_ > 1) {
        // The caller simulates shard 0 between the barriers, so the
        // pool holds hostThreads-1 workers and each barrier counts
        // hostThreads parties.
        startBarrier_ = std::make_unique<SpinBarrier>(hostThreads_);
        endBarrier_ = std::make_unique<SpinBarrier>(hostThreads_);
        workers_.reserve(hostThreads_ - 1);
        for (unsigned s = 1; s < hostThreads_; ++s)
            workers_.emplace_back(&ShardedMesh::workerLoop, this, s);
    }
}

ShardedMesh::~ShardedMesh()
{
    if (!workers_.empty()) {
        stop_.store(true, std::memory_order_release);
        startBarrier_->arriveAndWait();
        for (std::thread &w : workers_)
            w.join();
    }
}

unsigned
ShardedMesh::shardOf(unsigned n) const
{
    for (unsigned s = 0; s < shardRange_.size(); ++s)
        if (n >= shardRange_[s].first && n < shardRange_[s].second)
            return s;
    return 0;
}

bool
ShardedMesh::allDone() const
{
    // Fail-stopped nodes are frozen mid-flight — they are neither
    // running nor waited for. The run is over when every *survivor*
    // is done (vacuously true if everything died).
    for (unsigned n = 0; n < machines_.size(); ++n)
        if (!mesh_.nodeDead(n) && !machines_[n]->allDone())
            return false;
    return true;
}

bool
ShardedMesh::watchdogTripped() const
{
    for (const auto &m : machines_)
        if (m->watchdogTripped())
            return true;
    return false;
}

void
ShardedMesh::simulateShard(unsigned shard)
{
    const auto [first, last] = shardRange_[shard];
    const uint64_t from = epochFrom_;
    const uint64_t to = epochTo_;
    // Cycle-major so every machine in the mesh executes cycle c
    // before any machine executes cycle c+1 (within the epoch the
    // shards interleave freely — the lookahead guarantees nothing
    // observable crosses shards before the barrier). A node whose
    // threads are all parked or stalled is not stepped before its
    // wake: its idle cycles are owed, and idleTo() pays them in one
    // step when it next steps or something at the barrier needs it
    // current.
    for (uint64_t c = from; c < to; ++c) {
        for (unsigned n = first; n < last; ++n) {
            NodeSched &s = sched_[n];
            if (!s.live || s.wake > c)
                continue;
            isa::Machine &m = *machines_[n];
            m.idleTo(c);
            m.step();
            s.wake = m.wakeCycle();
            s.stepped = true;
        }
    }
    // Only a step or the barrier changes whether a machine is done.
    // A done machine can never wake up on its own (no pending split
    // transactions, no ready threads), so it stops being stepped; its
    // clock freezes at the end of the epoch in which it finished.
    // This is part of the canonical schedule: identical for every
    // host-thread count.
    for (unsigned n = first; n < last; ++n) {
        NodeSched &s = sched_[n];
        if (!s.stepped)
            continue;
        s.stepped = false;
        if (machines_[n]->allDone()) {
            machines_[n]->idleTo(to);
            s.live = false;
            shardLive_[shard]--;
        }
    }
}

void
ShardedMesh::workerLoop(unsigned shard)
{
    for (;;) {
        startBarrier_->arriveAndWait();
        if (stop_.load(std::memory_order_acquire))
            break;
        simulateShard(shard);
        endBarrier_->arriveAndWait();
    }
}

void
ShardedMesh::startRun()
{
    // The machines are stepped one cycle at a time, not run(): let
    // every cluster rescan threads changed since the last run. A
    // fail-stopped machine stays frozen mid-flight.
    for (unsigned s = 0; s < hostThreads_; ++s) {
        const auto [first, last] = shardRange_[s];
        shardLive_[s] = 0;
        for (unsigned n = first; n < last; ++n) {
            machines_[n]->threadsChanged();
            NodeSched &ns = sched_[n];
            ns = NodeSched{};
            ns.live = !mesh_.nodeDead(n) && !machines_[n]->allDone();
            shardLive_[s] += ns.live ? 1 : 0;
        }
    }
}

void
ShardedMesh::catchUpAll()
{
    for (unsigned n = 0; n < machines_.size(); ++n)
        if (sched_[n].live)
            machines_[n]->idleTo(cycle_);
}

void
ShardedMesh::retire(unsigned n)
{
    sched_[n].live = false;
    shardLive_[shardOf(n)]--;
}

unsigned
ShardedMesh::liveCount() const
{
    unsigned live = 0;
    for (unsigned l : shardLive_)
        live += l;
    return live;
}

void
ShardedMesh::killNode(unsigned n)
{
    if (n >= machines_.size() || mesh_.nodeDead(n))
        return;
    if (sched_[n].live) {
        // Frozen as of the barrier, like every other machine.
        machines_[n]->idleTo(cycle_);
        retire(n);
    }
    mesh_.failNode(n);
    sim::warn("sharded mesh: node %u fail-stopped at cycle %llu", n,
              static_cast<unsigned long long>(cycle_));
}

void
ShardedMesh::applyMeshFaults()
{
    auto &inj = sim::FaultInjector::instance();
    const unsigned nodes = unsigned(machines_.size());

    // One opportunity per site per epoch. Victim selection draws
    // come from the same per-site stream as the Bernoulli draw, and
    // the candidate lists are id-sorted, so the failure schedule is
    // a pure function of (seed, config) — never of host threads.
    if (inj.fire(sim::FaultSite::NodeFailStop)) {
        std::vector<unsigned> alive;
        alive.reserve(nodes);
        for (unsigned n = 0; n < nodes; ++n)
            if (!mesh_.nodeDead(n))
                alive.push_back(n);
        if (!alive.empty())
            killNode(alive[inj.drawBelow(sim::FaultSite::NodeFailStop,
                                         alive.size())]);
    }
    if (inj.fire(sim::FaultSite::LinkDown)) {
        std::vector<std::pair<unsigned, unsigned>> up;
        up.reserve(size_t(nodes) * 6);
        for (unsigned n = 0; n < nodes; ++n)
            for (unsigned d = 0; d < 6; ++d)
                if (mesh_.neighbor(n, d) >= 0 && !mesh_.linkDown(n, d))
                    up.emplace_back(n, d);
        if (!up.empty()) {
            const auto [vn, vd] =
                up[inj.drawBelow(sim::FaultSite::LinkDown, up.size())];
            mesh_.failLink(vn, vd);
            sim::warn("sharded mesh: link %u/dir%u down at cycle %llu",
                      vn, vd,
                      static_cast<unsigned long long>(cycle_));
        }
    }
}

void
ShardedMesh::drainEpoch()
{
    // Barrier-time trace events stamp the last cycle the machines
    // stepped, as the last step() of the epoch left the trace clock.
    if (sim::TraceManager::anyEnabled())
        sim::TraceManager::instance().setCycle(epochTo_ - 1);

    // One central injector tick per cycle the machines stepped, as a
    // lone machine's run() ticks once per step(), in one canonical
    // order for every host-thread count.
    if (sim::FaultInjector::armed()) {
        auto &inj = sim::FaultInjector::instance();
        for (uint64_t n = epochTo_ - epochFrom_; n != 0; --n)
            inj.tick();
        // Mesh-scale fail-stop sites arm here — after the ticks,
        // before the drain — so an op already in flight to a node
        // that dies at this barrier fails *this* epoch.
        applyMeshFaults();
    }

    // Canonical drain rounds: resolving a deferred fetch decodes and
    // executes its instruction, which may immediately defer a remote
    // load/store — picked up by the next round. Ops whose issue cycle
    // lies beyond the epoch (a completion chain) still resolve at
    // this barrier, in the same canonical order; the mesh charges
    // contention from their recorded cycles either way.
    exchange_.drain(ops_);
    while (!ops_.empty()) {
        for (const DeferredAccess &op : ops_) {
            if (mesh_.nodeDead(op.node)) {
                // The poster fail-stopped with this op in flight:
                // nobody is waiting for the completion. Dropped, not
                // resolved — a dead node must not touch the fabric.
                deadOpsDropped_++;
                continue;
            }
            isa::Machine &m = *machines_[op.node];
            NodeSched &s = sched_[op.node];
            if (!s.drained) {
                // The completion runs at the barrier cycle.
                s.drained = true;
                drained_.push_back(op.node);
                m.idleTo(cycle_);
            }
            m.completeDeferred(op.ticket,
                               nodes_[op.node]->resolveDeferred(op));
        }
        exchange_.drain(ops_);
    }

    // The exchange is empty, so every op a survivor posted has
    // completed (an op to a dead home completes NodeUnreachable).
    // Only a dead poster's ops are dropped, and a dead machine is
    // never stepped again. A completion changes its node's threads:
    // the node wakes again, or is done if the op faulted its last
    // live thread.
    for (unsigned n : drained_) {
        NodeSched &s = sched_[n];
        s.drained = false;
        isa::Machine &m = *machines_[n];
        if (m.hasDeferred())
            sim::panic("sharded mesh: node %u still holds a split "
                       "transaction after the epoch drain", n);
        s.wake = m.wakeCycle();
        if (s.live && m.allDone())
            retire(n);
    }
    drained_.clear();

    // One profiler tick per barrier, once the drain has attributed
    // the completed split transactions and every machine's idle
    // cycles are charged: interval edges fall on epoch boundaries.
    if (sim::Profiler::armed()) {
        catchUpAll();
        sim::Profiler::instance().tick(cycle_);
    }
}

namespace {

const char *
threadStateName(isa::ThreadState s)
{
    switch (s) {
      case isa::ThreadState::Idle:
        return "idle";
      case isa::ThreadState::Ready:
        return "ready";
      case isa::ThreadState::Halted:
        return "halted";
      case isa::ThreadState::Faulted:
        return "faulted";
      case isa::ThreadState::Pending:
        return "pending";
    }
    return "?";
}

} // namespace

void
ShardedMesh::postMortem(std::ostream &os) const
{
    os << "=== mesh post-mortem @ cycle " << cycle_ << " ===\n"
       << "nodes=" << nodeCount() << " survivors=" << survivors()
       << " hostThreads=" << hostThreads_ << "\n";

    if (mesh_.degraded()) {
        os << "failure set: " << mesh_.deadNodeCount()
           << " dead node(s), " << mesh_.downLinkCount()
           << " down link(s)\n";
        os << "  dead nodes:";
        for (unsigned n = 0; n < nodeCount(); ++n)
            if (mesh_.nodeDead(n))
                os << " " << n;
        os << "\n  down links (node/dir):";
        for (unsigned n = 0; n < nodeCount(); ++n)
            for (unsigned d = 0; d < 6; ++d)
                if (!mesh_.nodeDead(n) && mesh_.neighbor(n, d) >= 0 &&
                    mesh_.linkDown(n, d))
                    os << " " << n << "/" << d;
        os << "\n";
        os << "degraded routing: " << mesh_.detourCount()
           << " detoured message(s), " << mesh_.unreachableCount()
           << " unreachable attempt(s), " << deadOpsDropped_
           << " dead-poster op(s) dropped\n";
    } else {
        os << "fabric healthy (no node/link failures)\n";
    }

    for (unsigned n = 0; n < machines_.size(); ++n) {
        const isa::Machine &m = *machines_[n];
        if (mesh_.nodeDead(n)) {
            os << "node " << n << ": FAIL-STOPPED at cycle "
               << m.cycle() << "\n";
            continue;
        }
        if (m.allDone() && !m.watchdogTripped())
            continue; // finished cleanly — not interesting here
        os << "node " << n << ": cycle=" << m.cycle()
           << (m.watchdogTripped() ? " watchdog=TRIPPED" : "")
           << "\n";
        for (const isa::Thread &t : m.threads()) {
            if (t.state() == isa::ThreadState::Idle)
                continue;
            os << "  thread " << t.id() << ": "
               << threadStateName(t.state()) << " ip=0x" << std::hex
               << t.ip().bits() << std::dec
               << " retired=" << t.instsRetired();
            if (t.stallUntil() == UINT64_MAX)
                os << " stalled=forever";
            else if (t.stallUntil() > m.cycle())
                os << " stalledUntil=" << t.stallUntil();
            os << "\n";
        }
        const auto &log = m.faultLog();
        const size_t tail = log.size() > 4 ? log.size() - 4 : 0;
        for (size_t i = tail; i < log.size(); ++i)
            os << "  fault[" << i
               << "]: " << faultName(log[i].fault) << " @ cycle "
               << log[i].cycle << "\n";
    }
    os << "=== end post-mortem ===\n";
}

uint64_t
ShardedMesh::run(uint64_t max_cycles)
{
    const uint64_t start = cycle_;
    const uint64_t limit = start + max_cycles;
    startRun();
    while (liveCount() != 0 && cycle_ < limit) {
        epochFrom_ = cycle_;
        epochTo_ = cycle_ + std::min(horizon_, limit - cycle_);
        if (workers_.empty()) {
            simulateShard(0);
        } else {
            startBarrier_->arriveAndWait(); // release workers
            simulateShard(0);
            endBarrier_->arriveAndWait(); // wait for the epoch
        }
        cycle_ = epochTo_;
        drainEpoch();
    }
    catchUpAll();
    exportShardStats();
    if (liveCount() != 0)
        sim::warn("sharded mesh: run() hit the %llu-cycle limit",
                  static_cast<unsigned long long>(max_cycles));
    return cycle_ - start;
}

void
ShardedMesh::exportShardStats()
{
    for (unsigned s = 0; s < hostThreads_; ++s) {
        const auto [first, last] = shardRange_[s];
        uint64_t busy = 0;
        uint64_t insts = 0;
        for (unsigned n = first; n < last; ++n) {
            isa::Machine &m = *machines_[n];
            const uint64_t cluster_cycles =
                m.cycle() * m.config().clusters;
            const uint64_t idle = m.stats().get( // statgroup-get: cold path
                "idle_cluster_cycles");
            busy += cluster_cycles > idle ? cluster_cycles - idle : 0;
            insts += m.stats().get( // statgroup-get: cold path
                "instructions");
        }
        shardCounters_[s].nodes->set(last - first);
        shardCounters_[s].busy->set(busy);
        shardCounters_[s].insts->set(insts);
    }
}

uint64_t
ShardedMesh::signature() const
{
    uint64_t h = 1469598103934665603ull; // FNV-1a 64 offset basis
    auto mix = [&h](uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };

    mix(cycle_);
    for (const auto &mp : machines_) {
        const isa::Machine &m = *mp;
        mix(m.cycle());
        mix(m.watchdogTripped() ? 1 : 0);
        for (const isa::FaultRecord &fr : m.faultLog()) {
            mix(uint64_t(fr.fault));
            mix(fr.cycle);
            mix(fr.ip.bits());
        }
        for (const isa::Thread &t : m.threads()) {
            mix(uint64_t(t.state()));
            mix(t.ip().bits());
            mix(t.ip().isPointer() ? 1 : 0);
            mix(t.instsRetired());
            mix(t.stallUntil() == UINT64_MAX ? 1 : 0);
            for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                mix(t.reg(r).bits());
                mix(t.reg(r).isPointer() ? 1 : 0);
            }
        }
    }
    // Every counter of the machine, node and mesh stat groups, in
    // each group's stable (name-sorted map) order. The retransmit
    // groups are not included.
    for (const auto &mp : machines_)
        for (const auto &[name, ctr] :
             const_cast<isa::Machine &>(*mp).stats().counters())
            mix(ctr.value());
    for (const auto &np : nodes_)
        for (const auto &[name, ctr] : np->stats().counters())
            mix(ctr.value());
    for (const auto &[name, ctr] :
         const_cast<Mesh &>(mesh_).stats().counters())
        mix(ctr.value());
    // Failure-set state is mixed only once the fabric degrades: a
    // failure-free run hashes exactly as the pre-resilience baseline
    // (the blessed F6/fig5 signatures must not move).
    if (mesh_.degraded()) {
        mix(0xdeadfab5ull); // domain separator: degraded section
        mix(mesh_.deadNodeCount());
        mix(mesh_.downLinkCount());
        mix(mesh_.detourCount());
        mix(mesh_.unreachableCount());
        for (unsigned n = 0; n < machines_.size(); ++n)
            mix(mesh_.nodeDead(n) ? 1 : 0);
        mix(deadOpsDropped_);
    }
    if (sim::FaultInjector::armed())
        mix(sim::FaultInjector::instance().injectedTotal());
    return h;
}

} // namespace gp::noc
