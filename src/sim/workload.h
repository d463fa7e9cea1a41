/**
 * @file
 * Synthetic memory-reference workload generators.
 *
 * The paper's comparative claims (context-switch cost, PLB pressure,
 * two-level translation latency, SFI overhead) are architectural, not
 * application-specific, so the reproduction drives every protection
 * scheme with the same parameterized synthetic traces: a working-set
 * locality model with controllable sharing across protection domains
 * and a controllable context-switch cadence. See DESIGN.md §2
 * (substitutions).
 */

#ifndef GP_SIM_WORKLOAD_H
#define GP_SIM_WORKLOAD_H

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace gp::sim {

/** One memory reference in a generated trace. */
struct MemRef
{
    uint64_t vaddr = 0;    //!< virtual byte address
    uint32_t domain = 0;   //!< protection domain issuing the reference
    uint32_t segment = 0;  //!< workload-level segment id (for checking)
    bool isWrite = false;  //!< store vs load
    bool isShared = false; //!< reference targets a cross-domain segment
};

/** Tunable parameters of the synthetic workload. */
struct WorkloadConfig
{
    uint32_t numDomains = 4;        //!< protection domains (processes)
    uint32_t segmentsPerDomain = 8; //!< private segments per domain
    uint32_t sharedSegments = 4;    //!< segments visible to all domains
    uint64_t segmentBytes = 4096;   //!< size of each segment
    double sharedFraction = 0.1;    //!< P(reference hits a shared segment)
    double writeFraction = 0.3;     //!< P(reference is a store)
    double jumpFraction = 0.05;     //!< P(jump to a new random segment)
    double localityMean = 16.0;     //!< mean sequential stride run length
    uint64_t switchInterval = 256;  //!< references per scheduling quantum
    uint64_t seed = 1;              //!< RNG seed (deterministic)
};

/**
 * Streaming generator of memory references with spatial locality,
 * cross-domain sharing, and round-robin domain scheduling.
 *
 * The virtual address layout places each segment at a unique 2^k-aligned
 * base so traces are directly usable by both the guarded-pointer memory
 * system and the baseline schemes.
 */
class TraceGenerator
{
  public:
    explicit TraceGenerator(const WorkloadConfig &config);

    /** Generate the next reference (advances domain scheduling). */
    MemRef next();

    /** Generate a whole trace of n references. */
    std::vector<MemRef> generate(uint64_t n);

    /** @return base virtual address of a domain's private segment. */
    uint64_t segmentBase(uint32_t domain, uint32_t segment) const;

    /** @return base virtual address of a shared segment. */
    uint64_t sharedBase(uint32_t segment) const;

    const WorkloadConfig &config() const { return config_; }

  private:
    /** Per-domain cursor state for the locality model. */
    struct Cursor
    {
        uint32_t segment = 0;   //!< global segment index
        uint64_t offset = 0;    //!< byte offset within segment
        uint64_t runLeft = 0;   //!< remaining refs in sequential run
        uint64_t stride = 8;    //!< current stride in bytes
    };

    void pickNewRun(Cursor &cur, uint32_t domain);
    uint64_t segmentBaseByIndex(uint32_t global_index) const;

    WorkloadConfig config_;
    Rng rng_;
    std::vector<Cursor> cursors_;
    uint32_t currentDomain_ = 0;
    uint64_t quantumLeft_;
    uint64_t segmentStride_;
};

} // namespace gp::sim

#endif // GP_SIM_WORKLOAD_H
