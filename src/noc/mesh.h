/**
 * @file
 * 3-D mesh interconnect model (paper §3: "The M-Machine is a
 * multicomputer with a 3-dimensional mesh interconnect").
 *
 * Dimension-order (XYZ) routing with per-link serialization: each
 * unidirectional link carries one flit per cycle, so concurrent
 * messages crossing the same link queue behind each other. The model
 * is cycle-approximate in the same spirit as the memory system — it
 * supplies hop latency and contention, not flit-level detail.
 */

#ifndef GP_NOC_MESH_H
#define GP_NOC_MESH_H

#include <cstdint>
#include <vector>

#include "sim/stats.h"

namespace gp::noc {

/** Mesh geometry and per-hop costs. */
struct MeshConfig
{
    unsigned dimX = 4;        //!< nodes per X row
    unsigned dimY = 2;        //!< nodes per Y column
    unsigned dimZ = 2;        //!< Z planes
    uint64_t hopLatency = 2;  //!< router + wire traversal per hop
    uint64_t injectLatency = 1; //!< network interface entry/exit
};

/** Extra cycles charged per hop a detour route takes beyond the
 * Manhattan distance (adaptive-routing table lookup + the longer
 * path's occupancy). Only reachable once the fabric is degraded — a
 * healthy mesh never detours. */
inline constexpr uint64_t kDetourPenalty = 1;

/** Node coordinates. */
struct Coord
{
    unsigned x = 0, y = 0, z = 0;

    bool operator==(const Coord &) const = default;
};

/** The mesh: routing, latency, and link contention. */
class Mesh
{
  public:
    explicit Mesh(const MeshConfig &config = MeshConfig{});

    unsigned nodeCount() const
    {
        return config_.dimX * config_.dimY * config_.dimZ;
    }

    /** Linear node id -> coordinates. */
    Coord coordOf(unsigned node) const;

    /** Coordinates -> linear node id. */
    unsigned nodeAt(Coord c) const;

    /** Manhattan hop count between two nodes. */
    unsigned hops(unsigned from, unsigned to) const;

    /** Outcome of a send attempt. */
    struct SendOutcome
    {
        bool delivered = false; //!< false: no surviving route
        uint64_t cycle = 0;     //!< delivery cycle when delivered
        bool detoured = false;  //!< route was longer than Manhattan
    };

    /**
     * Send a message of @p flits flits from @p from to @p to at cycle
     * @p now: the one routing and charging path of the mesh. The
     * message takes the dimension-order route, queuing behind earlier
     * traffic on every link it crosses. Once the fabric is degraded()
     * and that route crosses a dead link or node, it takes the
     * deterministic shortest detour instead (breadth-first, fixed
     * +x/-x/+y/-y/+z/-z direction order), charging kDetourPenalty extra
     * cycles per hop beyond the Manhattan distance; pairs whose route
     * avoids the damage see exactly the healthy fabric's timing. A
     * dead endpoint or a partitioned pair is returned as not
     * delivered — the typed-unreachable signal the end-to-end retry
     * protocol converts into a NodeUnreachable fault.
     */
    SendOutcome trySend(unsigned from, unsigned to, uint64_t now,
                        unsigned flits = 1);

    /** trySend() for callers that know the pair is reachable:
     * @return the delivery cycle (0 if it was not delivered). */
    uint64_t
    send(unsigned from, unsigned to, uint64_t now, unsigned flits = 1)
    {
        return trySend(from, to, now, flits).cycle;
    }

    /** Fail-stop node death: every link touching @p node goes down
     * with it. Permanent for the life of the mesh. */
    void failNode(unsigned node);

    /** Take down the unidirectional link leaving @p node in
     * @p direction (0..5 = +x,-x,+y,-y,+z,-z). Permanent. */
    void failLink(unsigned node, unsigned direction);

    /** @return true once any node or link has failed. */
    bool degraded() const { return degraded_; }

    bool nodeDead(unsigned node) const
    {
        // Empty checks matter: the vectors are sized on the FIRST
        // failure of their kind, so a link-only failure set leaves
        // deadNodes_ empty (and vice versa).
        return degraded_ && !deadNodes_.empty() &&
               deadNodes_[node] != 0;
    }

    bool linkDown(unsigned node, unsigned direction) const
    {
        return degraded_ && !downLinks_.empty() &&
               downLinks_[linkId(node, direction)] != 0;
    }

    /** Neighbor of @p node in @p direction, or -1 at the mesh edge.
     * Directions as failLink(). */
    int neighbor(unsigned node, unsigned direction) const;

    uint64_t deadNodeCount() const { return deadNodeCount_; }
    uint64_t downLinkCount() const { return downLinkCount_; }
    /** Messages delivered over a longer-than-Manhattan route. */
    uint64_t detourCount() const { return detours_; }
    /** Send attempts that found no surviving route. */
    uint64_t unreachableCount() const { return unreachable_; }

    /**
     * Lower bound on the latency of ANY inter-node message: one
     * single-flit hop between adjacent nodes with no contention.
     * This is the lookahead of the sharded mesh engine — a message
     * injected during an epoch of this many cycles cannot be
     * observed by another node before the epoch ends, so shards can
     * simulate an epoch independently and exchange traffic at the
     * barrier without reordering anything observable.
     */
    uint64_t
    minMessageLatency() const
    {
        return 2 * config_.injectLatency + config_.hopLatency;
    }

    /** Latency of an uncontended message (for analysis/printing). */
    uint64_t
    uncontendedLatency(unsigned from, unsigned to,
                       unsigned flits = 1) const
    {
        if (from == to)
            return 0;
        return 2 * config_.injectLatency +
               uint64_t(hops(from, to)) * config_.hopLatency + flits -
               1;
    }

    const MeshConfig &config() const { return config_; }
    sim::StatGroup &stats() { return stats_; }

  private:
    /** Unique id of the link leaving `node` in `direction` (0..5). */
    uint64_t
    linkId(unsigned node, unsigned direction) const
    {
        return uint64_t(node) * 6 + direction;
    }

    /** One dimension-order step (X, then Y, then Z) from @p cur
     * toward @p dst != @p cur: moves @p cur to the next node and
     * @return the direction (as failLink()) of the link taken. */
    static unsigned
    dimOrderStep(Coord &cur, const Coord &dst)
    {
        if (cur.x != dst.x) {
            const bool up = cur.x < dst.x;
            cur.x += up ? 1 : -1;
            return up ? 0 : 1;
        }
        if (cur.y != dst.y) {
            const bool up = cur.y < dst.y;
            cur.y += up ? 1 : -1;
            return up ? 2 : 3;
        }
        const bool up = cur.z < dst.z;
        cur.z += up ? 1 : -1;
        return up ? 4 : 5;
    }

    /** Deterministic BFS shortest route avoiding dead links/nodes
     * (fixed direction order), written to route_ as link ids.
     * @return false when partitioned. */
    bool detourRoute(unsigned from, unsigned to);

    MeshConfig config_;
    /// Busy-until cycle of every link, indexed by linkId().
    std::vector<uint64_t> linkBusy_;
    /// Link ids of the route being sent; reused so a send allocates
    /// nothing once it has grown to the longest route.
    std::vector<uint64_t> route_;
    sim::StatGroup stats_{"mesh"};

    // Failure state. Both vectors stay empty until the first
    // failNode/failLink call (degraded_ flips then), so a healthy
    // send's failure checks cost one bool test. Raw members, not stat
    // counters: the sharded-mesh signature mixes every mesh counter,
    // and a disarmed run must hash byte-identically to the
    // pre-resilience baselines (ShardedMesh::signature mixes these
    // separately, only once the fabric is degraded).
    bool degraded_ = false;
    std::vector<char> deadNodes_;  //!< by node id (sized on demand)
    std::vector<char> downLinks_;  //!< by linkId (sized on demand)
    uint64_t deadNodeCount_ = 0;
    uint64_t downLinkCount_ = 0;
    uint64_t detours_ = 0;
    uint64_t unreachable_ = 0;

    // Cached stat handles so trySend() pays increments, not map
    // lookups.
    sim::Counter *messages_ = nullptr;
    sim::Counter *flits_ = nullptr;
    sim::Counter *linkStallCycles_ = nullptr;
    sim::Counter *hopsTraversed_ = nullptr;
    sim::Histogram *deliveryLatency_ = nullptr;
};

} // namespace gp::noc

#endif // GP_NOC_MESH_H
