#!/usr/bin/env bash
# lint_hot_counters.sh — flag string-keyed stat lookups on hot paths.
#
# Convention (docs/OBSERVABILITY.md, "Stat handles"): per-event code
# must increment cached Counter*/Histogram* handles registered once at
# construction. Calling StatGroup::counter("name") or
# histogram("name") inside a per-event path performs a string-keyed
# std::map lookup per simulated event, which dominated the simulator
# profile before the handles existed.
#
# This lint greps the hot-path source trees (src/mem, src/isa,
# src/noc) and the fault injector, which the machine calls every
# cycle of a campaign (src/sim/faultinject.h holds the inline
# per-cycle tick() and fire(), src/sim/faultinject.cc the first-fire
# path), for direct counter()/histogram() calls. The one blessed
# pattern — taking the address of the returned reference to register a
# handle, e.g. `hits_ = &stats_.counter("hits");` — is excluded, as
# are comments. Anything else fails the lint: either hoist the call
# into the constructor as a handle, or (for genuinely cold paths)
# move the code out of the hot-path trees.

set -u
cd "$(dirname "$0")/.."

dirs="src/mem src/isa src/noc src/sim/faultinject.h src/sim/faultinject.cc"

viol=$(grep -rnE '\.(counter|histogram)\(' $dirs \
           --include='*.cc' --include='*.h' \
       | grep -vE '&[A-Za-z_][A-Za-z0-9_]*\.(counter|histogram)\(' \
       | grep -vE ':[0-9]+: *(//|\*|/\*)' || true)

if [ -n "$viol" ]; then
    echo "lint_hot_counters: string-keyed stat lookup(s) in hot-path sources:" >&2
    echo "$viol" >&2
    echo >&2
    echo "Register a cached handle in the constructor instead:" >&2
    echo "    hits_ = &stats_.counter(\"hits\");   // once" >&2
    echo "    (*hits_)++;                          // per event" >&2
    exit 1
fi

# The same discipline for the profiler: hot-path attribution calls
# (accSeg/accBase/attr*/beginInst/...) take enum components and
# integer lengths only. Passing a string literal to any Profiler call
# from the hot-path trees means a per-event string construction or a
# name-keyed lookup — registration (registerDomain/registerSymbol)
# belongs in cold loader code (src/os, tools), not here.
profviol=$(grep -rnE 'Profiler::instance\(\)\.[A-Za-z_]+\([^)]*"' $dirs \
               --include='*.cc' --include='*.h' \
           | grep -vE ':[0-9]+: *(//|\*|/\*)' || true)

if [ -n "$profviol" ]; then
    echo "lint_hot_counters: string argument(s) to Profiler calls in hot-path sources:" >&2
    echo "$profviol" >&2
    echo >&2
    echo "Hot-path profiler hooks must pass enum components and" >&2
    echo "integer lengths only; move name registration to the" >&2
    echo "loader (src/os) or the tool driver." >&2
    exit 1
fi

# Check-elision discipline (docs/VERIFIER.md, "Check elision"): the
# registered proofs are consulted exactly once per static
# instruction, on a predecode miss, where the verdict byte is baked
# into the cache slot. The per-executed-instruction hot loop must
# never scan the proof tables — a proof walk per retired instruction
# would hand back the very cycles elision exists to save.
# Blessed patterns: the proofVerdict() definition and declaration,
# the registration/clear/cold-guard accessors, the definition's own
# scan loop, and the single `? proofVerdict(...)` miss-path consult.
elideviol=$(grep -rnE '(proofVerdict|elideProofs_)' $dirs \
                --include='*.cc' --include='*.h' \
            | grep -vE ':[0-9]+: *(//|\*|/\*|///)' \
            | grep -vE 'Machine::proofVerdict' \
            | grep -vE 'uint8_t proofVerdict' \
            | grep -vE 'std::vector<ElideProof> elideProofs_;' \
            | grep -vE 'elideProofs_\.(push_back|clear|empty)\(' \
            | grep -vE 'for \(const ElideProof &p : elideProofs_\)' \
            | grep -vE '\? proofVerdict\(' || true)

if [ -n "$elideviol" ]; then
    echo "lint_hot_counters: proof-table consultation outside the predecode-miss path:" >&2
    echo "$elideviol" >&2
    echo >&2
    echo "Elision verdicts are baked into the predecode slot on a" >&2
    echo "miss; per-executed-instruction code must read the baked" >&2
    echo "verdict byte, never proofVerdict()/elideProofs_." >&2
    exit 1
fi
# Dispatch discipline (docs/ARCHITECTURE.md, "Dispatch"): the
# dispatcher runs once per simulated instruction, so a string-keyed
# lookup inside it — StatGroup::get("name") included — costs one map
# probe per instruction. The hot trees must read counters
# through cached handles everywhere; genuinely cold uses (once-per-run
# exports and the like) carry an explicit
# `// statgroup-get: cold path` annotation on the same line.
getviol=$(grep -rnE '(stats\(\)|stats_)\.get\(' $dirs \
              --include='*.cc' --include='*.h' \
          | grep -vE ':[0-9]+: *(//|\*|/\*)' \
          | grep -vE '// statgroup-get: cold path' || true)

if [ -n "$getviol" ]; then
    echo "lint_hot_counters: string-keyed StatGroup::get() in hot-path sources:" >&2
    echo "$getviol" >&2
    echo >&2
    echo "The dispatch loop and everything it calls must use cached" >&2
    echo "Counter* handles. If the call site is genuinely cold" >&2
    echo "(once per run), annotate it:" >&2
    echo "    x = stats().get(\"n\"); // statgroup-get: cold path" >&2
    exit 1
fi
echo "lint_hot_counters: OK (no string-keyed stat/profile lookups or hot-path proof consults in $dirs)"
