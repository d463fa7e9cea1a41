#include "noc/mesh.h"

#include <algorithm>
#include <deque>

#include "sim/log.h"
#include "sim/trace.h"

namespace gp::noc {

Mesh::Mesh(const MeshConfig &config) : config_(config)
{
    if (config_.dimX == 0 || config_.dimY == 0 || config_.dimZ == 0)
        sim::fatal("mesh: dimensions must be nonzero");
    linkBusy_.assign(size_t(nodeCount()) * 6, 0);
    messages_ = &stats_.counter("messages");
    flits_ = &stats_.counter("flits");
    linkStallCycles_ = &stats_.counter("link_stall_cycles");
    hopsTraversed_ = &stats_.counter("hops_traversed");
    // Uncontended latency for the default 4x2x2 mesh tops out around
    // 2*inject + 7 hops * hopLatency; 64 cycles of range leaves room
    // for queueing before the overflow bucket.
    deliveryLatency_ = &stats_.histogram("delivery_latency", 16, 64);
}

Coord
Mesh::coordOf(unsigned node) const
{
    Coord c;
    c.x = node % config_.dimX;
    c.y = (node / config_.dimX) % config_.dimY;
    c.z = node / (config_.dimX * config_.dimY);
    return c;
}

unsigned
Mesh::nodeAt(Coord c) const
{
    return c.x + config_.dimX * (c.y + config_.dimY * c.z);
}

unsigned
Mesh::hops(unsigned from, unsigned to) const
{
    const Coord a = coordOf(from);
    const Coord b = coordOf(to);
    auto dist = [](unsigned p, unsigned q) {
        return p > q ? p - q : q - p;
    };
    return dist(a.x, b.x) + dist(a.y, b.y) + dist(a.z, b.z);
}

int
Mesh::neighbor(unsigned node, unsigned direction) const
{
    Coord c = coordOf(node);
    switch (direction) {
      case 0:
        if (c.x + 1 >= config_.dimX)
            return -1;
        c.x++;
        break;
      case 1:
        if (c.x == 0)
            return -1;
        c.x--;
        break;
      case 2:
        if (c.y + 1 >= config_.dimY)
            return -1;
        c.y++;
        break;
      case 3:
        if (c.y == 0)
            return -1;
        c.y--;
        break;
      case 4:
        if (c.z + 1 >= config_.dimZ)
            return -1;
        c.z++;
        break;
      case 5:
        if (c.z == 0)
            return -1;
        c.z--;
        break;
      default:
        return -1;
    }
    return int(nodeAt(c));
}

void
Mesh::failNode(unsigned node)
{
    if (node >= nodeCount())
        sim::fatal("mesh: failNode id out of range");
    if (deadNodes_.empty())
        deadNodes_.assign(nodeCount(), 0);
    if (deadNodes_[node])
        return;
    deadNodes_[node] = 1;
    deadNodeCount_++;
    degraded_ = true;
    // The node's own links die with it; routing also refuses to pass
    // *through* a dead node, so inbound links are implicitly dead.
    for (unsigned d = 0; d < 6; ++d)
        if (neighbor(node, d) >= 0)
            failLink(node, d);
    GP_TRACE(NoC, 0, node, "node-fail-stop", "node %u dead", node);
}

void
Mesh::failLink(unsigned node, unsigned direction)
{
    if (node >= nodeCount() || direction >= 6 ||
        neighbor(node, direction) < 0)
        sim::fatal("mesh: failLink names no physical link");
    if (downLinks_.empty())
        downLinks_.assign(size_t(nodeCount()) * 6, 0);
    auto &down = downLinks_[linkId(node, direction)];
    if (down)
        return;
    down = 1;
    downLinkCount_++;
    degraded_ = true;
    GP_TRACE(NoC, 0, node, "link-down", "node %u dir %u", node,
             direction);
}

bool
Mesh::detourRoute(unsigned from, unsigned to)
{
    // Breadth-first over live nodes and up links, expanding neighbors
    // in the fixed +x/-x/+y/-y/+z/-z order, so the route — and thus
    // the timing of everything behind it — is a pure function of the
    // failure set, never of host iteration order.
    const unsigned n = nodeCount();
    std::vector<int> parent(n, -1);     // previous node on the path
    std::vector<int8_t> via(n, -1);     // direction taken into node
    std::vector<char> seen(n, 0);
    std::deque<unsigned> frontier;
    seen[from] = 1;
    frontier.push_back(from);
    while (!frontier.empty() && !seen[to]) {
        const unsigned at = frontier.front();
        frontier.pop_front();
        for (unsigned d = 0; d < 6; ++d) {
            const int next = neighbor(at, d);
            if (next < 0 || seen[next] || linkDown(at, d))
                continue;
            if (unsigned(next) != to && nodeDead(unsigned(next)))
                continue;
            seen[next] = 1;
            parent[next] = int(at);
            via[next] = int8_t(d);
            frontier.push_back(unsigned(next));
        }
    }
    if (!seen[to])
        return false;
    route_.clear();
    for (unsigned at = to; at != from; at = unsigned(parent[at]))
        route_.push_back(linkId(unsigned(parent[at]), unsigned(via[at])));
    std::reverse(route_.begin(), route_.end());
    return true;
}

Mesh::SendOutcome
Mesh::trySend(unsigned from, unsigned to, uint64_t now, unsigned flits)
{
    if (from >= nodeCount() || to >= nodeCount())
        sim::fatal("mesh: node id out of range");
    if (nodeDead(from) || nodeDead(to)) {
        unreachable_++;
        return SendOutcome{};
    }
    if (from == to)
        return SendOutcome{true, now, false};

    // Dimension-order route: X, then Y, then Z. Once degraded, a
    // route crossing a dead link or node falls back to the detour.
    route_.clear();
    Coord cur = coordOf(from);
    const Coord dst = coordOf(to);
    unsigned at = from;
    bool blocked = false;
    while (cur != dst) {
        const unsigned direction = dimOrderStep(cur, dst);
        const unsigned next = nodeAt(cur);
        if (degraded_ && (linkDown(at, direction) ||
                          (next != to && nodeDead(next)))) {
            blocked = true;
            break;
        }
        route_.push_back(linkId(at, direction));
        at = next;
    }
    if (blocked && !detourRoute(from, to)) {
        unreachable_++;
        GP_TRACE(NoC, now, from, "unreachable", "dst=%u", to);
        return SendOutcome{};
    }

    // At each hop the message occupies the outgoing link for `flits`
    // cycles, queuing behind whatever holds it.
    (*messages_)++;
    (*flits_) += flits;
    uint64_t t = now + config_.injectLatency;
    for (const uint64_t link : route_) {
        uint64_t &busy = linkBusy_[link];
        const uint64_t start = std::max(t, busy);
        if (start > t)
            (*linkStallCycles_) += start - t;
        busy = start + flits;
        t = start + config_.hopLatency;
    }
    (*hopsTraversed_) += route_.size();
    // A BFS route is never shorter than the Manhattan distance.
    const uint64_t extra_hops = blocked ? route_.size() - hops(from, to) : 0;
    if (extra_hops > 0) {
        t += extra_hops * kDetourPenalty;
        detours_++;
    }
    const uint64_t done = t + config_.injectLatency + flits - 1;
    deliveryLatency_->sample(done - now);
    GP_TRACE(NoC, now, from, "send",
             "dst=%u flits=%u hops=%zu%s latency=%llu", to, flits,
             route_.size(), extra_hops > 0 ? " (detour)" : "",
             static_cast<unsigned long long>(done - now));
    return SendOutcome{true, done, extra_hops > 0};
}

} // namespace gp::noc
