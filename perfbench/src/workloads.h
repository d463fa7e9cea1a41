/**
 * @file
 * The four benchmark workloads. Each one builds fresh simulated
 * machines in every iteration (modelled caches start empty, as in a
 * sweep or campaign) and returns the simulated outcome, which main.cc
 * checks against the first iteration's.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "isa/assembler.h"
#include "isa/machine.h"
#include "mem/cache.h"
#include "noc/shard.h"
#include "sim/stats_registry.h"

namespace perfbench {

/** Simulated result of one iteration. */
struct Outcome
{
    uint64_t cycles = 0;       //!< simulated cycles, summed over machines
    uint64_t instructions = 0; //!< simulated instructions, all nodes
    /** Compared against the first iteration with the same key. */
    uint64_t signature = 0;
    /** Iterations with different keys run different simulations
     * (campaign run indices); all others use key 0. */
    uint64_t key = 0;
    /** Non-empty when a thread ended in a state the workload does
     * not expect. */
    std::string error;
};

/** Host time spent inside the memory port, counted by TimedPort. */
struct PortTally
{
    uint64_t calls = 0;
    double seconds = 0;
};

/** What a traced iteration measured, besides its Outcome. */
struct TraceSample
{
    PortTally port;        //!< forwarding-port calls and time
    /** Host time inside Machine::run, or ShardedMesh::run for the
     * mesh. */
    double runSeconds = 0;
    /** Host time inside CampaignRunner::runOne (campaign only). */
    double runOneSeconds = 0;
    unsigned machines = 0;    //!< machines built by the iteration
    double clusterCycles = 0; //!< simulated cycles x clusters
    /** Counter deltas from the stats registry over the iteration,
     * keyed "group.counter". */
    gp::sim::StatSnapshot counts;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string_view name() const = 0;

    /** Assemble, verify, build and golden-run: everything before the
     * first timed iteration. Idempotent, so it can be timed
     * repeatedly. */
    virtual void setup() = 0;

    /** One closed-loop iteration on freshly built machines. */
    virtual Outcome iterate() = 0;

    /**
     * The same simulation as iterate(), with every memory-port call
     * and Machine::run timed from outside. Workloads whose machines
     * the benchmark cannot wrap (the mesh and the campaign build
     * their own) return an empty port tally.
     */
    virtual Outcome iterateTraced(TraceSample &sample) = 0;

    /** Iterations run before timing starts; default two. */
    virtual unsigned warmupIterations() const { return 2; }
};

/** @return the workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       uint64_t seed);

// ---- Building blocks shared with the layer probes and self-test ----

/** The MAP-like cache geometry of the Fig. 5 experiment. */
gp::mem::CacheConfig mapCache();

/** The P1 Fig. 5 program: 16 threads, 8 passes over 4 KiB each. */
extern const char *const kFig5Source;

/** Assemble @p src; exits with a message if it does not assemble. */
gp::isa::Assembly assembleOrDie(std::string_view src);

/** Load the Fig. 5 program as 16 threads into @p machine through
 * @p port (the machine's own port or a wrapper around it). */
void loadFig5(gp::isa::Machine &machine, gp::mem::MemoryPort &port,
              const gp::isa::Assembly &program);

/** Mesh program source with @p loops iterations per node; 96 is the
 * blessed F6d length. */
std::string meshSource(unsigned loops);

/** A 4x4x4 sharded mesh at @p host_threads with the program loaded on
 * every node; node n gets r2 = perm[n] (identity when empty). */
std::unique_ptr<gp::noc::ShardedMesh>
buildMesh(const gp::isa::Assembly &program, unsigned host_threads,
          const std::vector<unsigned> &perm);

/** Seeded permutation of the 64 mesh nodes. */
std::vector<unsigned> meshPermutation(uint64_t seed);

/** Loop count of the benchmark's (lengthened) mesh program. */
inline constexpr unsigned kMeshLoops = 192;

/** Host threads of the mesh64 workload; the box it targets is a
 * shared 4-core machine, so more would mostly measure the scheduler. */
inline constexpr unsigned kMeshHostThreads = 2;

/** Empty unless every thread of every node halted. */
std::string meshError(gp::noc::ShardedMesh &mesh);

/** splitmix64, for seed derivation. */
uint64_t mix64(uint64_t z);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
