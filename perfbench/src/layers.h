/**
 * @file
 * Per-layer host costs measured from outside the program: ns/op
 * microbenches of each layer's public functions on inputs shaped like
 * the workloads, and the shard-engine probe.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/assembler.h"

namespace perfbench {

/** Metric name -> value; units live in main.cc's metric table. */
using Values = std::map<std::string, double>;

/**
 * Run every microbench, giving each about @p budget_s seconds, and
 * store its median ns/op (µs for isa.machine_ctor_us).
 */
void runMicrobenches(double budget_s, Values &out);

/**
 * Shard-engine probe on the mesh program: epoch timings from a run
 * driven one horizon at a time at two host threads, per-shard busy
 * imbalance, 1- vs 2-thread speedup, and per-epoch barrier cost from
 * a 64-node program that makes no remote accesses.
 * @param expected_signature the untraced 2-thread signature; the
 *        stepped run must reproduce it.
 * @return false if the stepped run's signature differs.
 */
bool runShardProbe(const gp::isa::Assembly &program,
                   const std::vector<unsigned> &perm,
                   uint64_t expected_signature, Values &out);

/** Host cost of one steady_clock::now() call, in seconds. */
double clockReadSeconds();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
