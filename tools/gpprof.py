#!/usr/bin/env python3
"""Analyse a gpsim --profile-out JSON export (gpprof profiles).

Usage:
    gpprof.py PROFILE.json                  # CPI-stack + domain summary
    gpprof.py PROFILE.json --check          # validate schema + identities
    gpprof.py PROFILE.json --flamegraph     # collapsed call-gate stacks
    gpprof.py PROFILE.json --top N          # N hottest PCs, symbolised
    gpprof.py PROFILE.json --intervals      # per-interval time series

The profile attributes every simulated cluster-cycle to one CPI-stack
component (see docs/OBSERVABILITY.md, "Profiling"); --check verifies
the exact accounting identity sum(components) == cluster_cycles ==
clusters * cycles, which CI uses as the schema gate, and that the
interval series moves forward and sums to no more than the totals.

--flamegraph emits collapsed-stack lines ("domainA;domainB cycles"),
the input format of flamegraph.pl and speedscope, for profiles
recorded with the stacks mode (gpsim --profile=stacks or bare
--profile). Frames are protection domains entered through call gates.

Exit status: 0 on success, 1 when --check finds a violation, 2 on
unreadable/invalid input.
"""

import argparse
import json
import sys

COMPONENTS = [
    "issue", "compute", "check", "ifetch", "dcache", "tlbwalk",
    "noc", "ecc", "retransmit", "gate", "faulttrap", "empty",
    "otherstall",
]


def die(message):
    print(f"gpprof: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        die(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid JSON (line {e.lineno}: {e.msg})")
    if not isinstance(doc, dict) or doc.get("kind") != "gpprof-profile":
        die(f"{path} is not a gpprof profile "
            '(expected {"kind": "gpprof-profile", ...})')
    return doc


def domain_name(doc, idx):
    domains = doc.get("domains", [])
    if 0 <= idx < len(domains):
        d = domains[idx]
        return d.get("name") or f"domain@{d.get('base', 0):#x}"
    return f"domain#{idx}"


def check(doc):
    """Validate schema and the exact accounting identities."""
    errors = []
    for field in ("clusters", "cycles", "cluster_cycles",
                  "instructions", "components", "domains"):
        if field not in doc:
            errors.append(f"missing field: {field}")
    if errors:
        return errors

    comp = doc["components"]
    for name in COMPONENTS:
        if name not in comp:
            errors.append(f"missing CPI component: {name}")
        elif not isinstance(comp[name], int) or comp[name] < 0:
            errors.append(f"component {name} is not a non-negative "
                          f"integer: {comp[name]!r}")
    if errors:
        return errors

    total = sum(comp[name] for name in COMPONENTS)
    if total != doc["cluster_cycles"]:
        errors.append(
            f"CPI components sum to {total}, expected cluster_cycles "
            f"= {doc['cluster_cycles']}")
    if doc["clusters"] * doc["cycles"] != doc["cluster_cycles"]:
        errors.append(
            f"clusters*cycles = {doc['clusters'] * doc['cycles']} "
            f"!= cluster_cycles = {doc['cluster_cycles']}")

    # Per-domain cycles are the non-empty cluster-cycles, so they must
    # sum to cluster_cycles minus the empty component; instructions
    # must sum exactly.
    dom_cycles = sum(d.get("cycles", 0) for d in doc["domains"])
    busy = doc["cluster_cycles"] - comp["empty"]
    if doc["domains"] and dom_cycles != busy:
        errors.append(
            f"domain cycles sum to {dom_cycles}, expected "
            f"cluster_cycles - empty = {busy}")
    dom_insts = sum(d.get("instructions", 0) for d in doc["domains"])
    if doc["domains"] and dom_insts != doc["instructions"]:
        errors.append(
            f"domain instructions sum to {dom_insts}, expected "
            f"{doc['instructions']}")

    for i, pc in enumerate(doc.get("pcs", [])):
        pc_total = sum(pc["components"].get(n, 0) for n in COMPONENTS)
        if pc_total != pc.get("cycles", 0):
            errors.append(
                f"pcs[{i}] (pc={pc.get('pc')}) components sum to "
                f"{pc_total}, expected cycles = {pc.get('cycles')}")

    for i, st in enumerate(doc.get("stacks", [])):
        for frame in st.get("frames", []):
            if not 0 <= frame < len(doc["domains"]):
                errors.append(f"stacks[{i}] frame {frame} out of "
                              f"domain range")
    errors += check_intervals(doc)
    return errors


def check_intervals(doc):
    """Each interval is a delta since the one before it, so the series
    must move forward and can only add up to part of the totals (the
    cycles after the last snapshot are in no interval)."""
    errors = []
    ivs = doc.get("intervals", [])
    sums = dict.fromkeys(COMPONENTS, 0)
    prev = None
    for i, iv in enumerate(ivs):
        if not isinstance(iv, dict) or not all(
                k in iv for k in ("cycle", "instructions", "components")):
            errors.append(f"intervals[{i}] lacks cycle, instructions "
                          f"or components")
            return errors
        if prev is not None and iv["cycle"] <= prev:
            errors.append(f"intervals[{i}] cycle {iv['cycle']} does not "
                          f"follow {prev}")
        prev = iv["cycle"]
        for name in COMPONENTS:
            v = iv["components"].get(name, 0)
            if not isinstance(v, int) or v < 0:
                errors.append(f"intervals[{i}] component {name} is not "
                              f"a non-negative integer: {v!r}")
            else:
                sums[name] += v
    for name in COMPONENTS:
        if sums[name] > doc["components"][name]:
            errors.append(f"interval {name} deltas sum to {sums[name]}, "
                          f"over the total {doc['components'][name]}")
    insts = sum(iv["instructions"] for iv in ivs)
    if insts > doc["instructions"]:
        errors.append(f"interval instructions sum to {insts}, over "
                      f"instructions = {doc['instructions']}")
    return errors


def summary(doc):
    total = doc["cluster_cycles"] or 1
    insts = doc["instructions"]
    print(f"gpprof: {doc['clusters']} clusters, {doc['cycles']} "
          f"cycles, {insts} instructions "
          f"(IPC {insts / (doc['cycles'] or 1):.3f})")
    print(f"{'component':<12}{'cluster-cycles':>16}{'share':>9}"
          f"{'CPI':>10}")
    for name in COMPONENTS:
        v = doc["components"].get(name, 0)
        if v == 0:
            continue
        cpi = v / insts if insts else 0.0
        print(f"{name:<12}{v:>16}{100.0 * v / total:>8.2f}%"
              f"{cpi:>10.4f}")
    if doc.get("domains"):
        print("\nper-domain attribution:")
        print(f"{'domain':<24}{'cycles':>14}{'insts':>12}"
              f"{'enters':>9}")
        for d in doc["domains"]:
            name = d.get("name") or f"@{d.get('base', 0):#x}"
            print(f"{name:<24}{d['cycles']:>14}"
                  f"{d['instructions']:>12}{d['enters']:>9}")


def symbolise(doc):
    """Map of sorted (addr, name) for nearest-preceding-symbol lookup."""
    syms = sorted((s["addr"], s["name"])
                  for s in doc.get("symbols", []))
    def lookup(pc):
        best = None
        for addr, name in syms:
            if addr > pc:
                break
            best = (addr, name)
        if best is None:
            return f"{pc:#x}"
        off = pc - best[0]
        return best[1] if off == 0 else f"{best[1]}+{off:#x}"
    return lookup


def top(doc, n):
    pcs = doc.get("pcs")
    if pcs is None:
        die("profile has no per-PC data (record with --profile=pc)")
    lookup = symbolise(doc)
    ranked = sorted(pcs, key=lambda p: p["cycles"], reverse=True)[:n]
    total = sum(p["cycles"] for p in pcs) or 1
    print(f"{'pc':<18}{'symbol':<24}{'cycles':>12}{'share':>9}"
          f"{'insts':>10}  dominant")
    for p in ranked:
        comps = [(v, k) for k, v in p["components"].items() if v]
        dominant = max(comps)[1] if comps else "-"
        print(f"{p['pc']:<#18x}{lookup(p['pc']):<24}"
              f"{p['cycles']:>12}{100.0 * p['cycles'] / total:>8.2f}%"
              f"{p['instructions']:>10}  {dominant}")


def flamegraph(doc, out):
    stacks = doc.get("stacks")
    if stacks is None:
        die("profile has no call-gate stacks "
            "(record with --profile=stacks)")
    for st in stacks:
        if st["cycles"] == 0:
            continue
        frames = ";".join(domain_name(doc, f) for f in st["frames"])
        if frames:
            print(f"{frames} {st['cycles']}", file=out)


def intervals(doc):
    ivs = doc.get("intervals")
    if ivs is None:
        die("profile has no interval data "
            "(record with --profile=interval)")
    period = doc.get("interval_cycles", 0)
    print(f"interval period: {period} cycles")
    print(f"{'cycle':>12}{'insts':>10}  " +
          "".join(f"{n:>11}" for n in COMPONENTS))
    for iv in ivs:
        print(f"{iv['cycle']:>12}{iv['instructions']:>10}  " +
              "".join(f"{iv['components'].get(n, 0):>11}"
                      for n in COMPONENTS))


def main():
    ap = argparse.ArgumentParser(
        description="analyse a gpsim --profile-out JSON export")
    ap.add_argument("profile")
    ap.add_argument("--check", action="store_true",
                    help="validate schema and accounting identities")
    ap.add_argument("--flamegraph", action="store_true",
                    help="emit collapsed call-gate stacks "
                         "(flamegraph.pl / speedscope input)")
    ap.add_argument("--top", type=int, metavar="N",
                    help="print the N hottest PCs")
    ap.add_argument("--intervals", action="store_true",
                    help="print the interval time series")
    args = ap.parse_args()

    doc = load(args.profile)

    if args.check:
        errors = check(doc)
        if errors:
            for e in errors:
                print(f"gpprof: CHECK FAILED: {e}", file=sys.stderr)
            return 1
        print(f"gpprof: OK ({doc['cluster_cycles']} cluster-cycles "
              f"exactly attributed across {len(COMPONENTS)} "
              f"components)")
        return 0
    if args.flamegraph:
        flamegraph(doc, sys.stdout)
        return 0
    if args.top is not None:
        top(doc, args.top)
        return 0
    if args.intervals:
        intervals(doc)
        return 0
    summary(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
