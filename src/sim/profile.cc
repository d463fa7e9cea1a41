#include "sim/profile.h"

#include <algorithm>
#include <cstdio>

#include "sim/json.h"

namespace gp::sim {

std::string_view
profCompName(ProfComp comp)
{
    switch (comp) {
    case ProfComp::Issue: return "issue";
    case ProfComp::Compute: return "compute";
    case ProfComp::Check: return "check";
    case ProfComp::IFetch: return "ifetch";
    case ProfComp::DCache: return "dcache";
    case ProfComp::TlbWalk: return "tlbwalk";
    case ProfComp::Noc: return "noc";
    case ProfComp::Ecc: return "ecc";
    case ProfComp::Retransmit: return "retransmit";
    case ProfComp::Gate: return "gate";
    case ProfComp::FaultTrap: return "faulttrap";
    case ProfComp::Empty: return "empty";
    case ProfComp::OtherStall: return "otherstall";
    }
    return "?";
}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::arm(unsigned clusters, unsigned thread_slots,
              const ProfileConfig &config)
{
    config_ = config;
    clusters_ = clusters;
    for (auto &c : comp_)
        c = 0;
    clusterCycles_ = 0;
    instructions_ = 0;
    checksElided_ = 0;
    checksExecuted_ = 0;
    recs_.assign(thread_slots, SlotRec{});
    threadCycles_.assign(thread_slots, 0);
    threadInsts_.assign(thread_slots, 0);
    accN_ = 0;
    domains_.clear();
    domainIdx_.clear();
    pcs_.clear();
    pcIdx_.clear();
    stacks_.clear();
    stackIdx_.clear();
    domainNames_.clear();
    symbols_.clear();
    intervals_.clear();
    for (auto &c : intervalComp_)
        c = 0;
    intervalInsts_ = 0;
    armed_ = true;
}

void
Profiler::disarm()
{
    armed_ = false;
}

void
Profiler::reset()
{
    disarm();
    recs_.clear();
    threadCycles_.clear();
    threadInsts_.clear();
    domains_.clear();
    domainIdx_.clear();
    domainNames_.clear();
    pcs_.clear();
    pcIdx_.clear();
    stacks_.clear();
    stackIdx_.clear();
    symbols_.clear();
    intervals_.clear();
    for (auto &c : comp_)
        c = 0;
    clusterCycles_ = 0;
    instructions_ = 0;
    checksElided_ = 0;
    checksExecuted_ = 0;
    clusters_ = 0;
}

void
Profiler::registerDomain(uint64_t base, std::string name)
{
    domainNames_[base] = std::move(name);
    // Rename an already-interned domain so registration order (before
    // vs after first execution) never changes the export.
    auto it = domainIdx_.find(base);
    if (it != domainIdx_.end())
        domains_[it->second].name = domainNames_[base];
}

void
Profiler::registerSymbol(std::string name, uint64_t addr)
{
    symbols_.emplace_back(std::move(name), addr);
}

uint32_t
Profiler::internDomain(uint64_t base, uint64_t end)
{
    auto it = domainIdx_.find(base);
    if (it != domainIdx_.end())
        return it->second;
    DomainStats d;
    d.base = base;
    d.end = end;
    auto name_it = domainNames_.find(base);
    if (name_it != domainNames_.end())
        d.name = name_it->second;
    uint32_t idx = uint32_t(domains_.size());
    domains_.push_back(std::move(d));
    domainIdx_.emplace(base, idx);
    return idx;
}

uint32_t
Profiler::internStack(const std::vector<uint32_t> &frames)
{
    auto it = stackIdx_.find(frames);
    if (it != stackIdx_.end())
        return it->second;
    StackStats s;
    s.frames = frames;
    uint32_t idx = uint32_t(stacks_.size());
    stacks_.push_back(std::move(s));
    stackIdx_.emplace(stacks_[idx].frames, idx);
    return idx;
}

void
Profiler::resolveDomain(SlotRec &rec, uint64_t base, uint64_t end)
{
    uint32_t prev = rec.valid || !rec.gateStack.empty() ? rec.domain
                                                        : UINT32_MAX;
    rec.domain = internDomain(base, end);
    rec.domainBase = base;
    rec.domainEnd = end;
    domains_[rec.domain].enters++;
    if (!config_.stacks)
        return;
    // Call-gate stack: entering a domain already on the stack is a
    // return through it (pop back to it); otherwise it's a call
    // (push). The very first instruction seeds the stack.
    auto &st = rec.gateStack;
    auto pos = std::find(st.begin(), st.end(), rec.domain);
    if (pos != st.end()) {
        st.erase(pos + 1, st.end());
    } else {
        if (prev == UINT32_MAX)
            st.clear();
        st.push_back(rec.domain);
        if (st.size() > 64) // runaway guard: keep the leaf-most frames
            st.erase(st.begin());
    }
    rec.stack = internStack(st);
}

void
Profiler::appendSeg(SlotRec &rec, ProfComp comp, uint64_t len)
{
    if (len == 0)
        return;
    if (rec.nsegs > 0 && rec.segs[rec.nsegs - 1].comp == comp) {
        rec.segs[rec.nsegs - 1].len += len;
        return;
    }
    if (rec.nsegs == kMaxSegs) {
        rec.segs[kMaxSegs - 1].len += len;
        return;
    }
    rec.segs[rec.nsegs++] = Seg{comp, len};
}

uint64_t
Profiler::recCovered(const SlotRec &rec) const
{
    uint64_t covered = 0;
    for (uint32_t i = 0; i < rec.nsegs; ++i)
        covered += rec.segs[i].len;
    return covered;
}

void
Profiler::beginInst(unsigned slot, uint64_t cycle, uint64_t pc,
                    uint64_t seg_base, uint64_t seg_end)
{
    SlotRec &rec = recs_[slot];
    bool same_domain = rec.valid && seg_base == rec.domainBase;
    rec.valid = true;
    rec.start = cycle;
    rec.pc = pc;
    rec.nsegs = 0;
    if (!same_domain)
        resolveDomain(rec, seg_base, seg_end);
    instructions_++;
    intervalInsts_++;
    threadInsts_[slot]++;
    domains_[rec.domain].insts++;
}

void
Profiler::flushAccess(unsigned slot, uint64_t len)
{
    SlotRec &rec = recs_[slot];
    if (!rec.valid)
        return;
    // Normalise the scratch timeline against the access's actual
    // latency: pad shortfall with the base component, clip excess, so
    // the record tiles exactly `len` cycles however much (or little)
    // the traversed layers itemised.
    uint64_t remaining = len;
    for (uint32_t i = 0; i < accN_ && remaining; ++i) {
        uint64_t take = std::min(accSegs_[i].len, remaining);
        appendSeg(rec, accSegs_[i].comp, take);
        remaining -= take;
    }
    if (remaining)
        appendSeg(rec, accBase_, remaining);
    accN_ = 0;
}

void
Profiler::endInst(unsigned slot, uint64_t done, ProfComp tail)
{
    SlotRec &rec = recs_[slot];
    if (!rec.valid)
        return;
    uint64_t span = done > rec.start ? done - rec.start : 0;
    uint64_t covered = recCovered(rec);
    if (covered < span) {
        appendSeg(rec, tail, span - covered);
    } else if (covered > span) {
        // Clip from the back so the record never outlives occupancy.
        uint64_t excess = covered - span;
        while (excess && rec.nsegs) {
            Seg &last = rec.segs[rec.nsegs - 1];
            uint64_t cut = std::min(last.len, excess);
            last.len -= cut;
            excess -= cut;
            if (last.len == 0)
                rec.nsegs--;
        }
    }
    if (config_.pc) {
        auto [it, fresh] = pcIdx_.try_emplace(rec.pc,
                                              uint32_t(pcs_.size()));
        if (fresh) {
            pcs_.emplace_back();
            pcs_.back().pc = rec.pc;
        }
        PcStats &ps = pcs_[it->second];
        ps.insts++;
        ps.cycles += span;
        // The issue cycle itself is Issue; the remaining occupancy
        // follows the segment timeline.
        uint64_t skip = span ? 1 : 0;
        if (skip)
            ps.comp[unsigned(ProfComp::Issue)]++;
        for (uint32_t i = 0; i < rec.nsegs; ++i) {
            uint64_t len = rec.segs[i].len;
            uint64_t eat = std::min(skip, len);
            skip -= eat;
            ps.comp[unsigned(rec.segs[i].comp)] += len - eat;
        }
    }
    if (config_.stacks && rec.stack < stacks_.size())
        stacks_[rec.stack].cycles += span;
}

void
Profiler::noteTrap(unsigned slot, uint64_t cycle, uint64_t trap)
{
    // A recovered fault: the thread's next `trap` stall cycles are
    // handler latency. Open a fresh record (the faulting instruction
    // did not retire through endInst) owned by the current domain.
    SlotRec &rec = recs_[slot];
    if (!rec.valid)
        return;
    rec.start = cycle;
    rec.nsegs = 0;
    appendSeg(rec, ProfComp::FaultTrap, trap);
}

void
Profiler::noteHang(unsigned slot, uint64_t cycle)
{
    // A lost NoC request with retransmission off: the thread stalls
    // forever. Tile the rest of time with Noc so attrStall always
    // finds a component.
    SlotRec &rec = recs_[slot];
    if (!rec.valid)
        return;
    rec.start = cycle;
    rec.nsegs = 0;
    appendSeg(rec, ProfComp::Noc, UINT64_MAX - cycle);
}

uint32_t
Profiler::unknownDomain()
{
    // Busy cycles no instruction record can own (a thread whose very
    // first fetch faulted or hung): attributed to a synthetic domain
    // so the per-domain identity sum(domains) == busy cycles is
    // unconditional.
    const uint32_t idx = internDomain(0, 0);
    if (domains_[idx].name.empty())
        domains_[idx].name = "unknown";
    return idx;
}

void
Profiler::attrIssue(unsigned slot)
{
    comp_[unsigned(ProfComp::Issue)]++;
    clusterCycles_++;
    threadCycles_[slot]++;
    SlotRec &rec = recs_[slot];
    domains_[rec.valid ? rec.domain : unknownDomain()].cycles++;
}

void
Profiler::attrStall(unsigned slot, uint64_t cycle, uint64_t n)
{
    clusterCycles_ += n;
    threadCycles_[slot] += n;
    SlotRec &rec = recs_[slot];
    uint64_t &other = comp_[unsigned(ProfComp::OtherStall)];
    if (!rec.valid) {
        domains_[unknownDomain()].cycles += n;
        other += n;
        return;
    }
    domains_[rec.domain].cycles += n;
    // Each cycle goes to the segment it falls in, OtherStall past the
    // timeline. Records open at the machine's current cycle, so
    // `cycle` never precedes rec.start.
    uint64_t off = cycle - rec.start;
    for (uint32_t i = 0; i < rec.nsegs && n != 0; ++i) {
        if (off >= rec.segs[i].len) {
            off -= rec.segs[i].len;
            continue;
        }
        const uint64_t k = std::min(n, rec.segs[i].len - off);
        comp_[unsigned(rec.segs[i].comp)] += k;
        n -= k;
        off = 0;
    }
    other += n;
}

void
Profiler::tick(uint64_t cycle)
{
    if (!config_.interval || config_.intervalCycles == 0)
        return;
    // One snapshot once the tick reaches or passes the next multiple
    // of the period after the last snapshot, however many multiples
    // it passed: a lone machine ticks every cycle and hits each one,
    // a mesh ticks at its epoch barriers.
    const uint64_t period = config_.intervalCycles;
    const uint64_t last = intervals_.empty() ? 0 : intervals_.back().cycle;
    if (cycle >= (last / period + 1) * period)
        snapshotInterval(cycle);
}

void
Profiler::snapshotInterval(uint64_t cycle)
{
    Interval iv;
    iv.cycle = cycle;
    iv.insts = intervalInsts_;
    intervalInsts_ = 0;
    for (unsigned i = 0; i < kProfCompCount; ++i) {
        iv.comp[i] = comp_[i] - intervalComp_[i];
        intervalComp_[i] = comp_[i];
    }
    intervals_.push_back(iv);
}

namespace {

void
writeCompObject(std::ostream &os, const uint64_t comp[kProfCompCount])
{
    os << "{";
    for (unsigned i = 0; i < kProfCompCount; ++i) {
        if (i)
            os << ", ";
        os << "\"" << profCompName(ProfComp(i)) << "\": " << comp[i];
    }
    os << "}";
}

} // namespace

void
Profiler::exportJson(std::ostream &os) const
{
    os << "{\n  \"kind\": \"gpprof-profile\",\n";
    os << "  \"clusters\": " << clusters_ << ",\n";
    os << "  \"cycles\": " << cycles() << ",\n";
    os << "  \"cluster_cycles\": " << clusterCycles_ << ",\n";
    os << "  \"instructions\": " << instructions_ << ",\n";
    os << "  \"checks_elided\": " << checksElided_ << ",\n";
    os << "  \"checks_executed\": " << checksExecuted_ << ",\n";
    os << "  \"components\": ";
    writeCompObject(os, comp_);
    os << ",\n";

    os << "  \"domains\": [";
    for (size_t i = 0; i < domains_.size(); ++i) {
        const DomainStats &d = domains_[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << jsonEscape(d.name) << "\", "
           << "\"base\": " << d.base << ", "
           << "\"end\": " << d.end << ", "
           << "\"cycles\": " << d.cycles << ", "
           << "\"instructions\": " << d.insts << ", "
           << "\"enters\": " << d.enters << "}";
    }
    os << (domains_.empty() ? "]" : "\n  ]");

    if (config_.pc) {
        // Sort by PC for a deterministic, diff-friendly export.
        std::vector<uint32_t> order(pcs_.size());
        for (uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                      return pcs_[a].pc < pcs_[b].pc;
                  });
        os << ",\n  \"pcs\": [";
        for (size_t i = 0; i < order.size(); ++i) {
            const PcStats &p = pcs_[order[i]];
            os << (i ? ",\n    " : "\n    ");
            os << "{\"pc\": " << p.pc << ", "
               << "\"instructions\": " << p.insts << ", "
               << "\"cycles\": " << p.cycles << ", "
               << "\"components\": ";
            writeCompObject(os, p.comp);
            os << "}";
        }
        os << (order.empty() ? "]" : "\n  ]");
        os << ",\n  \"symbols\": [";
        for (size_t i = 0; i < symbols_.size(); ++i) {
            os << (i ? ",\n    " : "\n    ");
            os << "{\"name\": \"" << jsonEscape(symbols_[i].first)
               << "\", \"addr\": " << symbols_[i].second << "}";
        }
        os << (symbols_.empty() ? "]" : "\n  ]");
    }

    if (config_.stacks) {
        os << ",\n  \"stacks\": [";
        for (size_t i = 0; i < stacks_.size(); ++i) {
            const StackStats &s = stacks_[i];
            os << (i ? ",\n    " : "\n    ");
            os << "{\"frames\": [";
            for (size_t f = 0; f < s.frames.size(); ++f)
                os << (f ? ", " : "") << s.frames[f];
            os << "], \"cycles\": " << s.cycles << "}";
        }
        os << (stacks_.empty() ? "]" : "\n  ]");
    }

    if (config_.interval) {
        os << ",\n  \"interval_cycles\": " << config_.intervalCycles;
        os << ",\n  \"intervals\": [";
        for (size_t i = 0; i < intervals_.size(); ++i) {
            const Interval &iv = intervals_[i];
            os << (i ? ",\n    " : "\n    ");
            os << "{\"cycle\": " << iv.cycle << ", "
               << "\"instructions\": " << iv.insts << ", "
               << "\"components\": ";
            writeCompObject(os, iv.comp);
            os << "}";
        }
        os << (intervals_.empty() ? "]" : "\n  ]");
    }

    os << "\n}\n";
}

void
Profiler::summary(std::ostream &os) const
{
    os << "gpprof CPI stack (" << clusters_ << " clusters, "
       << cycles() << " cycles, " << instructions_
       << " instructions)\n";
    uint64_t total = clusterCycles_;
    if (total == 0)
        total = 1;
    for (unsigned i = 0; i < kProfCompCount; ++i) {
        if (comp_[i] == 0)
            continue;
        double pct = 100.0 * double(comp_[i]) / double(total);
        double cpi = instructions_
                         ? double(comp_[i]) / double(instructions_)
                         : 0.0;
        char line[128];
        std::snprintf(line, sizeof line,
                      "  %-10s %14llu  %6.2f%%  CPI %.4f\n",
                      std::string(profCompName(ProfComp(i))).c_str(),
                      (unsigned long long)comp_[i], pct, cpi);
        os << line;
    }
    os << "  total cluster-cycles " << clusterCycles_ << "\n";
    if (checksElided_ || checksExecuted_) {
        os << "  checks elided " << checksElided_ << " / executed "
           << checksExecuted_ << " (verifier-proven elision)\n";
    }
    if (!domains_.empty()) {
        os << "gpprof domains\n";
        for (const DomainStats &d : domains_) {
            os << "  " << (d.name.empty() ? "?" : d.name) << " @0x"
               << std::hex << d.base << std::dec << ": " << d.cycles
               << " cycles, " << d.insts << " insts, " << d.enters
               << " enters\n";
        }
    }
}

} // namespace gp::sim
