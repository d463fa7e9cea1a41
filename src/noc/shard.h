/**
 * @file
 * Sharded 3-D mesh execution engine: deterministic, barrier-
 * synchronized epochs across host threads.
 *
 * The multicomputer simulator's scalability wall is single-threaded
 * execution: a 64-node mesh steps 64 machines on one host core. This
 * engine partitions the mesh into contiguous node shards, runs each
 * shard on its own host thread, and keeps results bit-identical for
 * ANY host-thread count — including one — by construction:
 *
 *  - Epoch horizon. The mesh's minimum inter-node message latency
 *    (Mesh::minMessageLatency()) bounds how soon a message injected
 *    "now" can be observed anywhere else, so every shard can simulate
 *    that many cycles with no inter-shard communication (conservative
 *    lookahead, as in classic conservative parallel discrete-event
 *    simulation).
 *
 *  - Two-phase exchange. During the parallel phase a node executes
 *    own-home accesses synchronously and posts every remote-home
 *    access to the EpochExchange (its own lane — no locks); the
 *    issuing hardware thread parks as a split transaction. At the
 *    epoch barrier the engine drains the exchange in the canonical
 *    (issue cycle, node, ticket) order on one thread and delivers
 *    each outcome back via Machine::completeDeferred().
 *
 *  - Per-node wake. Within an epoch a node is stepped only from
 *    Machine::wakeCycle() on: a node whose threads are all parked or
 *    stalled owes its idle cycles, and Machine::idleTo() pays them in
 *    one step whenever something needs the node current (its next
 *    step, a completion or fail-stop at the barrier, the end of the
 *    epoch in which it finished, the profiler tick, the return of
 *    run()). Liveness is decided per operation too: a shard for the
 *    nodes it stepped, the drain for the nodes it completed ops on.
 *
 *  - One watchdog. A node stops itself the way a lone machine does:
 *    ShardConfig::machine carries the cycle budget and quiescence
 *    window, and Machine::wakeCycle() keeps a node stepped in any
 *    cycle whose check could trip. A split transaction never
 *    outlives its epoch drain and no node can wake another node's
 *    stalled thread, so a node quiescent by its own test is
 *    quiescent for good; nothing mesh-wide is checked. A trip
 *    happens on its shard's host thread, at the same simulated
 *    cycle for every host-thread count.
 *
 *  - Singleton discipline. Machine::step() ticks no process-wide
 *    clock, so the barrier thread ticks the FaultInjector once per
 *    simulated cycle of the epoch and the Profiler once per epoch,
 *    and fault draws happen in one canonical order; per-node/
 *    per-machine StatGroups are only ever touched by their owning
 *    shard or the barrier thread.
 *
 * The schedule the engine executes is therefore a fixed function of
 * the configuration and programs alone: thread count only changes
 * which host thread does the work, never its order. Note this
 * canonical schedule is the engine's own reference — it defers ALL
 * remote-home accesses to the barrier, which a free-running
 * round-robin interleaving (tests stepping machines by hand, no
 * exchange attached) does not; see docs/ARCHITECTURE.md.
 */

#ifndef GP_NOC_SHARD_H
#define GP_NOC_SHARD_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <thread>
#include <vector>

#include "isa/machine.h"
#include "noc/mesh.h"
#include "noc/node_memory.h"
#include "noc/retransmit.h"

namespace gp::noc {

/** Configuration of a sharded mesh run. */
struct ShardConfig
{
    MeshConfig mesh;                //!< geometry and link costs
    mem::MemConfig node;            //!< per-node cache/TLB/timing
    isa::MachineConfig machine;     //!< per-node machine (mem ignored)
    RetransConfig retrans;          //!< NoC link protocol
    /** Host threads simulating the mesh. 1 (default) runs everything
     * on the calling thread; clamped to the node count. Results are
     * identical for every value. */
    unsigned hostThreads = 1;
};

/**
 * A full mesh of machines + node memories under the epoch engine.
 * Construction wires every node; the caller loads programs / spawns
 * threads through node(n)/machine(n), then run()s the whole mesh.
 */
class ShardedMesh
{
  public:
    explicit ShardedMesh(const ShardConfig &config);
    ~ShardedMesh();

    ShardedMesh(const ShardedMesh &) = delete;
    ShardedMesh &operator=(const ShardedMesh &) = delete;

    unsigned nodeCount() const { return unsigned(nodes_.size()); }
    unsigned hostThreads() const { return hostThreads_; }
    uint64_t epochHorizon() const { return horizon_; }

    /** Shard index simulating node @p n (contiguous node ranges). */
    unsigned shardOf(unsigned n) const;

    Mesh &mesh() { return mesh_; }
    NodeMemory &node(unsigned n) { return *nodes_[n]; }
    isa::Machine &machine(unsigned n) { return *machines_[n]; }

    /** Global simulated cycle (every live machine is in lockstep). */
    uint64_t cycle() const { return cycle_; }

    /**
     * Run epochs until every machine is done or @p max_cycles more
     * cycles elapse. Also refreshes the per-shard stat groups before
     * returning.
     * @return cycles executed by this call.
     */
    uint64_t run(uint64_t max_cycles = 1'000'000);

    /** @return true when every *surviving* machine has finished
     * (fail-stopped nodes are frozen, not waited for). */
    bool allDone() const;

    /** @return true if any machine's watchdog fired. */
    bool watchdogTripped() const;

    /**
     * Fail-stop death of node @p n, effective at the next epoch
     * barrier boundary: its mesh links go down, its machine freezes
     * as-is (never stepped again, excluded from allDone()), and any
     * exchange ops it posted are dropped. Idempotent. Also the entry point
     * the NodeFailStop fault site uses.
     */
    void killNode(unsigned n);

    /** @return true once node @p n has fail-stopped. */
    bool nodeDead(unsigned n) const { return mesh_.nodeDead(n); }

    /** Surviving (not fail-stopped) node count. */
    unsigned
    survivors() const
    {
        return nodeCount() - unsigned(mesh_.deadNodeCount());
    }

    /**
     * Flight-recorder-style post-mortem of the mesh: failure set,
     * degraded-routing tallies, and the state of every surviving
     * machine that had not finished (thread states, IPs, recent
     * faults). Written by gpsim when a mesh run
     * trips a watchdog; cheap enough to call any time.
     */
    void postMortem(std::ostream &os) const;

    /**
     * Deterministic digest of the architectural outcome: FNV-1a over
     * every machine's cycle count, fault log, and final thread state
     * (state, IP, registers, retired instructions), every node's
     * counters, and the mesh counters. Byte-identical across host
     * thread counts and repeated runs.
     */
    uint64_t signature() const;

  private:
    /** Sense-reversing spin barrier (small party counts, short
     * epochs: spinning beats futex wake latency; std::atomic keeps
     * it TSan-clean). */
    class SpinBarrier
    {
      public:
        explicit SpinBarrier(unsigned parties) : parties_(parties) {}

        void
        arriveAndWait()
        {
            const uint64_t gen = gen_.load(std::memory_order_acquire);
            if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                parties_) {
                arrived_.store(0, std::memory_order_relaxed);
                gen_.fetch_add(1, std::memory_order_release);
            } else {
                unsigned spins = 0;
                while (gen_.load(std::memory_order_acquire) == gen) {
                    if (++spins > 4096) {
                        std::this_thread::yield();
                        spins = 0;
                    }
                }
            }
        }

      private:
        const unsigned parties_;
        std::atomic<unsigned> arrived_{0};
        std::atomic<uint64_t> gen_{0};
    };

    /** Step the live machines of @p shard through the epoch window
     * [epochFrom_, epochTo_), cycle-major so the whole mesh stays in
     * lockstep, each only in the cycles from its wake on; then
     * decide liveness for the nodes it stepped. */
    void simulateShard(unsigned shard);

    /** Worker thread main loop (shards 1..hostThreads-1; shard 0
     * runs on the caller between the barriers). */
    void workerLoop(unsigned shard);

    /** Barrier phase: central injector ticks for the finished epoch,
     * then per-epoch mesh fault arming, then canonical drain of the
     * exchange (rounds, because a completed remote fetch may
     * immediately defer a remote load), then one profiler tick. */
    void drainEpoch();

    /** One Bernoulli opportunity per epoch for each mesh-scale
     * fault site (NodeFailStop, LinkDown), with victims drawn from
     * the id-sorted live-node / up-link lists — a pure function of
     * (seed, epoch index, failure set), independent of host
     * threads. Runs on the barrier thread before the drain so ops
     * already in flight to a just-dead node fail this epoch. */
    void applyMeshFaults();

    /** run() entry: every machine rescans its threads, and liveness
     * and wakes are decided afresh for every node. */
    void startRun();

    /** Bring every live machine's clock up to cycle_ (it may lag
     * while its idle cycles are owed). */
    void catchUpAll();

    /** Node @p n stops being stepped (done or fail-stopped). */
    void retire(unsigned n);

    /** Nodes still being stepped, over all shards. */
    unsigned liveCount() const;

    /** Update the per-shard stat groups from machine stats. */
    void exportShardStats();

    ShardConfig config_;
    Mesh mesh_;
    GlobalMemory global_;
    EpochExchange exchange_;
    std::vector<std::unique_ptr<NodeMemory>> nodes_;
    std::vector<std::unique_ptr<isa::Machine>> machines_;
    unsigned hostThreads_ = 1;
    uint64_t horizon_ = 1; //!< cycles per epoch: the lookahead
    uint64_t cycle_ = 0;
    /// [first, last) node range per shard.
    std::vector<std::pair<unsigned, unsigned>> shardRange_;
    /**
     * Per-node schedule. During an epoch only the node's own shard
     * touches it; between epochs, the barrier thread.
     */
    struct NodeSched
    {
        /// First cycle the node must step (Machine::wakeCycle());
        /// the cycles before it cost nothing until the machine is
        /// brought current with Machine::idleTo().
        uint64_t wake = 0;
        bool live = true;     //!< still stepped: neither done nor dead
        bool stepped = false; //!< stepped this epoch
        bool drained = false; //!< had an op completed this barrier
    };
    std::vector<NodeSched> sched_;
    /// Live nodes per shard (each shard counts down its own).
    std::vector<unsigned> shardLive_;
    /// Nodes that had an op completed in this barrier's drain.
    std::vector<unsigned> drained_;
    /// Drain buffer, reused every barrier.
    std::vector<DeferredAccess> ops_;

    // Worker pool (empty when hostThreads == 1). Workers park on
    // startBarrier_ between epochs; the epoch window is published in
    // epochFrom_/epochTo_ before the start barrier and read after it.
    std::vector<std::thread> workers_;
    std::unique_ptr<SpinBarrier> startBarrier_;
    std::unique_ptr<SpinBarrier> endBarrier_;
    std::atomic<bool> stop_{false};
    uint64_t epochFrom_ = 0;
    uint64_t epochTo_ = 0;

    // Mesh-resilience state (a raw member, not a stat counter: a
    // disarmed run's signature must stay byte-identical to the
    // pre-resilience baselines; signature() mixes it only once the
    // fabric is degraded).
    uint64_t deadOpsDropped_ = 0;

    /// Per-shard simulated-load stat groups ("shard0", "shard1", ...)
    /// for tools/statdiff.py imbalance reporting. busy_cycles is
    /// SIMULATED work (cluster-cycles minus idle), so the export
    /// stays deterministic — no host time.
    std::vector<std::unique_ptr<sim::StatGroup>> shardStats_;
    /// Cached handles into shardStats_ (nodes, busy_cycles,
    /// instructions), registered once at construction.
    struct ShardCounters
    {
        sim::Counter *nodes;
        sim::Counter *busy;
        sim::Counter *insts;
    };
    std::vector<ShardCounters> shardCounters_;
};

} // namespace gp::noc

#endif // GP_NOC_SHARD_H
