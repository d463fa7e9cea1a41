#include "sim/workload.h"

#include "sim/log.h"

namespace gp::sim {

namespace {

/** Round up to the next power of two (minimum 1). */
uint64_t
nextPow2(uint64_t v)
{
    if (v <= 1)
        return 1;
    return uint64_t(1) << (64 - __builtin_clzll(v - 1));
}

} // namespace

TraceGenerator::TraceGenerator(const WorkloadConfig &config)
    : config_(config),
      rng_(config.seed),
      quantumLeft_(config.switchInterval)
{
    if (config_.numDomains == 0)
        fatal("workload: numDomains must be nonzero");
    if (config_.segmentsPerDomain == 0 && config_.sharedSegments == 0)
        fatal("workload: no segments configured");
    if (config_.segmentBytes == 0)
        fatal("workload: segmentBytes must be nonzero");

    // Segments are laid out contiguously at power-of-two aligned bases so
    // each maps exactly onto one guarded-pointer segment.
    segmentStride_ = nextPow2(config_.segmentBytes);

    cursors_.resize(config_.numDomains);
    for (uint32_t d = 0; d < config_.numDomains; ++d)
        pickNewRun(cursors_[d], d);
}

uint64_t
TraceGenerator::segmentBaseByIndex(uint32_t global_index) const
{
    // Leave segment 0's slot unused so address 0 is never generated.
    return (uint64_t(global_index) + 1) * segmentStride_;
}

uint64_t
TraceGenerator::segmentBase(uint32_t domain, uint32_t segment) const
{
    return segmentBaseByIndex(domain * config_.segmentsPerDomain + segment);
}

uint64_t
TraceGenerator::sharedBase(uint32_t segment) const
{
    return segmentBaseByIndex(
        config_.numDomains * config_.segmentsPerDomain + segment);
}

void
TraceGenerator::pickNewRun(Cursor &cur, uint32_t domain)
{
    const bool shared = config_.sharedSegments > 0 &&
                        (config_.segmentsPerDomain == 0 ||
                         rng_.chance(config_.sharedFraction));
    if (shared) {
        cur.segment = config_.numDomains * config_.segmentsPerDomain +
                      static_cast<uint32_t>(
                          rng_.below(config_.sharedSegments));
    } else {
        cur.segment = domain * config_.segmentsPerDomain +
                      static_cast<uint32_t>(
                          rng_.below(config_.segmentsPerDomain));
    }
    cur.offset = rng_.below(config_.segmentBytes) & ~uint64_t(7);
    cur.runLeft = rng_.geometric(config_.localityMean);
    cur.stride = 8;
}

MemRef
TraceGenerator::next()
{
    // Round-robin quantum scheduling across domains.
    if (quantumLeft_ == 0) {
        currentDomain_ = (currentDomain_ + 1) % config_.numDomains;
        quantumLeft_ = config_.switchInterval;
    }
    quantumLeft_--;

    Cursor &cur = cursors_[currentDomain_];
    if (cur.runLeft == 0 || rng_.chance(config_.jumpFraction))
        pickNewRun(cur, currentDomain_);
    cur.runLeft--;

    MemRef ref;
    ref.domain = currentDomain_;
    ref.segment = cur.segment;
    ref.isShared =
        cur.segment >= config_.numDomains * config_.segmentsPerDomain;
    ref.isWrite = rng_.chance(config_.writeFraction);
    ref.vaddr = segmentBaseByIndex(cur.segment) + cur.offset;

    cur.offset += cur.stride;
    if (cur.offset >= config_.segmentBytes)
        cur.offset = 0;

    return ref;
}

std::vector<MemRef>
TraceGenerator::generate(uint64_t n)
{
    std::vector<MemRef> trace;
    trace.reserve(n);
    for (uint64_t i = 0; i < n; ++i)
        trace.push_back(next());
    return trace;
}

} // namespace gp::sim
