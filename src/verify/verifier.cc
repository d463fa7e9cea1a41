/**
 * @file
 * The gpverify dataflow engine: forward abstract interpretation of an
 * assembled image over the guarded-pointer rights lattice.
 *
 * The transfer functions mirror src/isa/machine.cc and src/gp/ops.cc
 * *exactly* — every must-fault (error) verdict is held against the
 * runtime by the differential harness, so the order and kind of each
 * check below matches the machine's:
 *   - LD/ST with a non-zero displacement derive the effective pointer
 *     with a bounds-checked LEA first (Immutable for enter/key bases),
 *     then run the access check (PermissionDenied for rights misses).
 *   - checkAccess order: decode -> rights -> alignment -> bounds.
 *   - Branch deltas are 1 + imm instructions; IP advance is a LEA over
 *     the code segment, so escaping control flow is a BoundsViolation.
 *
 * Soundness posture: Error is claimed only when *every* concretization
 * of the abstract state faults with a kind in the diagnostic's mask;
 * anything uncertain (unknown offsets or lengths, joined permissions,
 * values loaded from memory, wrap-around corner cases) degrades to a
 * Warning. Unresolvable JMPs are modeled by a one-time "havoc": top is
 * joined into every instruction's entry state, a sound stand-in for an
 * external callee that shares the register file and may re-enter the
 * program anywhere.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "isa/inst.h"
#include "isa/loader.h"
#include "verify/verifier.h"

namespace gp::verify {

namespace {

using isa::Inst;
using isa::Op;
using Kind = AbsVal::Kind;

/// Perm encodings whose address field LEA/LEAB may modify.
constexpr uint16_t kMutableMask =
    uint16_t((1u << unsigned(Perm::ReadOnly)) |
             (1u << unsigned(Perm::ReadWrite)) |
             (1u << unsigned(Perm::ExecuteUser)) |
             (1u << unsigned(Perm::ExecutePrivileged)));

/** Effective alignment (log2) of a pointer value's offset. */
uint8_t
alignEffOf(const AbsVal &v)
{
    if (v.offKnown)
        return v.offset == 0 ? 63 : uint8_t(std::countr_zero(v.offset));
    return v.alignLog2;
}

/**
 * Must/may fault summary of one abstract operation. `faults` is the
 * mask of gp::Fault kinds some concretization raises; `mayOk` is true
 * when at least one concretization does not fault.
 */
struct Outcome
{
    uint16_t faults = 0;
    bool mayOk = true;

    void add(Fault f) { faults |= faultBit(f); }

    static Outcome
    must(Fault f)
    {
        Outcome o;
        o.add(f);
        o.mayOk = false;
        return o;
    }
};

/** Outcome plus the result value on the fault-free paths. */
struct XferOut
{
    Outcome o;
    AbsVal res;
};

/** Which instruction family a diagnostic comes from (kind mapping). */
enum class Ctx
{
    Lea,      //!< LEA/LEAB/PTOI/ITOP and displacement derivation
    Access,   //!< the load/store rights + geometry check
    Restrict, //!< RESTRICT
    Subseg,   //!< SUBSEG
    Jump,     //!< JMP
};

/** Pick the dominant diagnostic kind for a fault mask in a context. */
DiagKind
kindFor(uint16_t mask, Ctx ctx, const AbsVal &operand)
{
    if (mask & faultBit(Fault::NotAPointer)) {
        return operand.kind == Kind::Int && operand.neverWritten
                   ? DiagKind::UseBeforeDefPointer
                   : DiagKind::DerefNotPointer;
    }
    if (mask & faultBit(Fault::InvalidPermission)) {
        return ctx == Ctx::Restrict ? DiagKind::RestrictInvalidPerm
                                    : DiagKind::DerefInvalidPerm;
    }
    if (mask & faultBit(Fault::Immutable))
        return DiagKind::PointerImmutable;
    if (mask & faultBit(Fault::PermissionDenied)) {
        return ctx == Ctx::Jump ? DiagKind::JumpNotExecutable
                                : DiagKind::DerefNoAccess;
    }
    if (mask & faultBit(Fault::NotSubset))
        return DiagKind::RestrictNotSubset;
    if (mask & faultBit(Fault::NotSmaller))
        return DiagKind::SubsegNotSmaller;
    if (mask & faultBit(Fault::PrivilegeViolation))
        return DiagKind::PrivilegeRequired;
    if (mask & faultBit(Fault::Misaligned))
        return DiagKind::MisalignedAccess;
    if (mask & faultBit(Fault::BoundsViolation))
        return DiagKind::BoundsEscape;
    return DiagKind::UnknownValue;
}

/** One-line human text per diagnostic kind. */
const char *
kindText(DiagKind k)
{
    switch (k) {
      case DiagKind::UseBeforeDefPointer:
        return "register used as a pointer but never written";
      case DiagKind::DerefNotPointer:
        return "pointer operand is an untagged integer";
      case DiagKind::DerefNoAccess:
        return "permission does not allow this access";
      case DiagKind::DerefInvalidPerm:
        return "pointer carries an undefined permission encoding";
      case DiagKind::PointerImmutable:
        return "enter/key pointers may not be modified";
      case DiagKind::RestrictNotSubset:
        return "restrict target is not a strict rights subset";
      case DiagKind::RestrictInvalidPerm:
        return "restrict target is not a defined permission";
      case DiagKind::SubsegNotSmaller:
        return "subseg does not shrink the segment";
      case DiagKind::JumpNotExecutable:
        return "jump target is not an executable pointer";
      case DiagKind::PrivilegeRequired:
        return "privileged operation in user mode";
      case DiagKind::TaggedInstruction:
        return "tagged word in the instruction stream";
      case DiagKind::UndecodableInstruction:
        return "undecodable instruction word";
      case DiagKind::BoundsEscape:
        return "address arithmetic escapes the segment";
      case DiagKind::RunOffEnd:
        return "control flow runs off the end of the program";
      case DiagKind::MisalignedAccess:
        return "access is not naturally aligned";
      case DiagKind::UnknownValue:
        return "operand value unknown to the analysis";
      default:
        return "capability violation";
    }
}

/**
 * Geometry result of an address derivation (LEA/LEAB/ITOP or a
 * displacement-addressed memory operand).
 */
struct Geom
{
    Outcome o;
    bool offKnown = false;
    uint64_t offset = 0;
    uint8_t align = 0;
};

/**
 * The masked comparator (paper Fig. 2) in the abstract. Must-fault is
 * claimed only for |delta| < 2^53 and segment lengths <= 53 bits, where
 * mod-2^54 wrap-around cannot bring the address back into the segment.
 */
Geom
leaGeom(const AbsVal &v, bool rebase, bool delta_known, int64_t delta)
{
    Geom g;
    const bool base_known = rebase || v.offKnown;
    const uint64_t base_off = rebase ? 0 : v.offset;

    if (delta_known && base_known) {
        const __int128 no = __int128(base_off) + delta;
        const bool small_delta = delta > -(int64_t(1) << 53) &&
                                 delta < (int64_t(1) << 53);
        if (no < 0) {
            g.o.add(Fault::BoundsViolation);
            // Negative offsets escape below the segment base; certain
            // only when the length is known small enough that the
            // comparator has fixed bits to trip on.
            g.o.mayOk =
                !(small_delta && v.lenKnown && v.lenLog2 <= 53);
            return g;
        }
        if (v.lenKnown) {
            if (no >= (__int128(1) << v.lenLog2)) {
                g.o.add(Fault::BoundsViolation);
                g.o.mayOk = !(small_delta && v.lenLog2 <= 53);
                return g;
            }
            g.offKnown = true;
            g.offset = uint64_t(no);
            return g;
        }
        // Known offset, unknown length: may exceed it.
        g.o.add(Fault::BoundsViolation);
        g.offKnown = true;
        g.offset = uint64_t(no);
        return g;
    }

    // Unknown delta and/or base offset: may fault, and only a
    // congruence fact survives.
    g.o.add(Fault::BoundsViolation);
    const uint8_t base_align = rebase ? 63 : alignEffOf(v);
    const uint8_t delta_align =
        delta_known
            ? (delta == 0 ? 63
                          : uint8_t(std::countr_zero(uint64_t(delta))))
            : 0;
    g.align = std::min(base_align, delta_align);
    return g;
}

/** Abstract gp::lea / gp::leab (decodeMutable + masked comparator). */
XferOut
leaXfer(const AbsVal &v, bool rebase, bool delta_known, int64_t delta)
{
    XferOut x;
    if (v.kind == Kind::Bottom || v.kind == Kind::Int) {
        x.o = Outcome::must(Fault::NotAPointer);
        return x;
    }
    if (v.kind == Kind::Any) {
        x.o.add(Fault::NotAPointer);
        x.o.add(Fault::InvalidPermission);
        x.o.add(Fault::Immutable);
        x.o.add(Fault::BoundsViolation);
        x.res = AbsVal::pointerAnyGeom(kMutableMask);
        return x;
    }

    const Geom g = leaGeom(v, rebase, delta_known, delta);
    uint16_t faults = 0;
    uint16_t ok_perms = 0;
    bool ok_seen = false;
    for (unsigned p = 0; p < 16; ++p) {
        if (!(v.perms & (1u << p)))
            continue;
        if (!permValid(p)) {
            faults |= faultBit(Fault::InvalidPermission);
            continue;
        }
        if (!addressMutable(Perm(p))) {
            faults |= faultBit(Fault::Immutable);
            continue;
        }
        faults |= g.o.faults;
        if (g.o.mayOk) {
            ok_seen = true;
            ok_perms |= uint16_t(1u << p);
        }
    }
    x.o.faults = faults;
    x.o.mayOk = ok_seen;
    if (ok_seen) {
        x.res.kind = Kind::Ptr;
        x.res.perms = ok_perms;
        x.res.lenKnown = v.lenKnown;
        x.res.lenLog2 = v.lenLog2;
        x.res.offKnown = g.offKnown;
        x.res.offset = g.offset;
        x.res.alignLog2 = g.offKnown ? 0 : g.align;
        x.res.isCode = v.isCode;
    }
    return x;
}

/** Geometry half of checkAccess: alignment then segment-size bound. */
Outcome
accessGeom(const AbsVal &v, unsigned size)
{
    Outcome o;
    if (size == 1)
        return o; // byte accesses never fault on geometry
    const unsigned log_size = unsigned(std::countr_zero(size));
    if (v.lenKnown) {
        if (v.lenLog2 < log_size) {
            // Segment smaller than the access: faults Misaligned or
            // BoundsViolation depending on the (unknown) base address.
            o.add(Fault::Misaligned);
            o.add(Fault::BoundsViolation);
            o.mayOk = false;
        } else if (v.offKnown) {
            if (v.offset & (size - 1)) {
                o.add(Fault::Misaligned);
                o.mayOk = false;
            }
        } else if (alignEffOf(v) < log_size) {
            o.add(Fault::Misaligned);
        }
    } else {
        o.add(Fault::Misaligned);
        o.add(Fault::BoundsViolation);
        if (v.offKnown && (v.offset & (size - 1)))
            o.mayOk = false;
    }
    return o;
}

/** Abstract gp::checkAccess: decode -> rights -> geometry. */
Outcome
accessXfer(const AbsVal &v, bool is_store, unsigned size)
{
    if (v.kind == Kind::Bottom || v.kind == Kind::Int)
        return Outcome::must(Fault::NotAPointer);
    if (v.kind == Kind::Any) {
        Outcome o;
        o.add(Fault::NotAPointer);
        o.add(Fault::InvalidPermission);
        o.add(Fault::PermissionDenied);
        o.add(Fault::Misaligned);
        o.add(Fault::BoundsViolation);
        return o;
    }

    const Outcome g = accessGeom(v, size);
    const uint32_t needed = is_store ? RightWrite : RightRead;
    Outcome o;
    uint16_t faults = 0;
    bool ok_seen = false;
    for (unsigned p = 0; p < 16; ++p) {
        if (!(v.perms & (1u << p)))
            continue;
        if (!permValid(p)) {
            faults |= faultBit(Fault::InvalidPermission);
            continue;
        }
        if ((rightsOf(Perm(p)) & needed) != needed) {
            faults |= faultBit(Fault::PermissionDenied);
            continue;
        }
        faults |= g.faults;
        if (g.mayOk)
            ok_seen = true;
    }
    o.faults = faults;
    o.mayOk = ok_seen;
    return o;
}

/** Abstract gp::restrictPerm. */
XferOut
restrictXfer(const AbsVal &v, bool t_known, unsigned target)
{
    XferOut x;
    if (v.kind == Kind::Bottom || v.kind == Kind::Int) {
        x.o = Outcome::must(Fault::NotAPointer);
        return x;
    }
    if (v.kind == Kind::Any) {
        x.o.add(Fault::NotAPointer);
        x.o.add(Fault::InvalidPermission);
        x.o.add(Fault::Immutable);
        x.o.add(Fault::NotSubset);
        x.res = AbsVal::pointerAnyGeom(
            t_known ? uint16_t(1u << (target & 0xf)) : uint16_t(0xff));
        return x;
    }

    uint16_t faults = 0;
    uint16_t ok_perms = 0;
    bool ok_seen = false;
    for (unsigned p = 0; p < 16; ++p) {
        if (!(v.perms & (1u << p)))
            continue;
        if (!permValid(p)) {
            faults |= faultBit(Fault::InvalidPermission);
            continue;
        }
        const Perm cur = Perm(p);
        if (cur == Perm::Key || cur == Perm::EnterUser ||
            cur == Perm::EnterPrivileged) {
            faults |= faultBit(Fault::Immutable);
            continue;
        }
        if (t_known) {
            if (!permValid(target)) {
                faults |= faultBit(Fault::InvalidPermission);
            } else if (!strictSubset(cur, Perm(target))) {
                faults |= faultBit(Fault::NotSubset);
            } else {
                ok_seen = true;
                ok_perms |= uint16_t(1u << target);
            }
        } else {
            uint16_t subs = 0;
            for (unsigned t = 1; t <= 7; ++t) {
                if (strictSubset(cur, Perm(t)))
                    subs |= uint16_t(1u << t);
            }
            faults |= faultBit(Fault::NotSubset);
            faults |= faultBit(Fault::InvalidPermission);
            if (subs) {
                ok_seen = true;
                ok_perms |= subs;
            }
        }
    }
    x.o.faults = faults;
    x.o.mayOk = ok_seen;
    if (ok_seen) {
        x.res = v;
        x.res.perms = ok_perms;
    }
    return x;
}

/** Abstract gp::subseg. */
XferOut
subsegXfer(const AbsVal &v, bool t_known, unsigned t)
{
    XferOut x;
    if (v.kind == Kind::Bottom || v.kind == Kind::Int) {
        x.o = Outcome::must(Fault::NotAPointer);
        return x;
    }
    if (v.kind == Kind::Any) {
        x.o.add(Fault::NotAPointer);
        x.o.add(Fault::InvalidPermission);
        x.o.add(Fault::Immutable);
        x.o.add(Fault::NotSmaller);
        x.res = AbsVal::pointerAnyGeom(
            uint16_t(kMutableMask | (1u << unsigned(Perm::Key))));
        x.res.perms = kMutableMask;
        return x;
    }

    uint16_t faults = 0;
    uint16_t ok_perms = 0;
    bool ok_seen = false;
    for (unsigned p = 0; p < 16; ++p) {
        if (!(v.perms & (1u << p)))
            continue;
        if (!permValid(p)) {
            faults |= faultBit(Fault::InvalidPermission);
            continue;
        }
        const Perm cur = Perm(p);
        if (cur == Perm::Key || cur == Perm::EnterUser ||
            cur == Perm::EnterPrivileged) {
            faults |= faultBit(Fault::Immutable);
            continue;
        }
        if (t_known && v.lenKnown) {
            if (t >= v.lenLog2) {
                faults |= faultBit(Fault::NotSmaller);
                continue;
            }
        } else {
            faults |= faultBit(Fault::NotSmaller);
        }
        ok_seen = true;
        ok_perms |= uint16_t(1u << p);
    }
    x.o.faults = faults;
    x.o.mayOk = ok_seen;
    if (ok_seen) {
        x.res.kind = Kind::Ptr;
        x.res.perms = ok_perms;
        if (t_known) {
            x.res.lenKnown = true;
            x.res.lenLog2 = uint8_t(t);
            const uint64_t mask =
                t >= 63 ? ~uint64_t(0) : ((uint64_t(1) << t) - 1);
            if (v.offKnown) {
                x.res.offKnown = true;
                x.res.offset = v.offset & mask;
            } else {
                x.res.alignLog2 =
                    std::min<uint8_t>(alignEffOf(v), uint8_t(t));
            }
        } else {
            x.res.alignLog2 = 0;
        }
        // Offsets are now relative to the shrunk segment, not the
        // original code base: the code-offset fact is gone.
        x.res.isCode = false;
    }
    return x;
}

/** Abstract gp::ptrToInt's decodeMutable head. */
Outcome
ptoiXfer(const AbsVal &v)
{
    if (v.kind == Kind::Bottom || v.kind == Kind::Int)
        return Outcome::must(Fault::NotAPointer);
    if (v.kind == Kind::Any) {
        Outcome o;
        o.add(Fault::NotAPointer);
        o.add(Fault::InvalidPermission);
        o.add(Fault::Immutable);
        return o;
    }
    Outcome o;
    uint16_t faults = 0;
    bool ok_seen = false;
    for (unsigned p = 0; p < 16; ++p) {
        if (!(v.perms & (1u << p)))
            continue;
        if (!permValid(p))
            faults |= faultBit(Fault::InvalidPermission);
        else if (!addressMutable(Perm(p)))
            faults |= faultBit(Fault::Immutable);
        else
            ok_seen = true;
    }
    o.faults = faults;
    o.mayOk = ok_seen;
    return o;
}

/** The analysis driver: fixpoint, then a recording pass for diags. */
class Analyzer
{
  public:
    Analyzer(const std::vector<Word> &words, const VerifyOptions &opts,
             const std::vector<isa::SourceLoc> *src_map)
        : words_(words), opts_(opts), srcMap_(src_map)
    {
        progWords_ = uint32_t(words.size());
        const uint64_t min_bytes = 8 * std::max<uint64_t>(1, words.size());
        // The code segment the loader would place the image in.
        codeLen_ = isa::segLenFor(min_bytes);
        capWords_ = uint32_t((uint64_t(1) << codeLen_) / 8);
        priv_ = opts.privileged;
        insts_.reserve(progWords_);
        for (uint32_t i = 0; i < progWords_; ++i)
            insts_.push_back(isa::decodeInst(words[i]));
    }

    VerifyResult run();

  private:
    using State = std::array<AbsVal, isa::kNumRegs>;

    struct Step
    {
        State out{};
        std::vector<uint32_t> succs;
        bool havoc = false;
    };

    Step transfer(uint32_t index, const State &in);
    void addEdges(Step &step, uint32_t index,
                  const std::vector<int64_t> &targets, bool may_other);
    bool joinInto(uint32_t index, const State &state);
    void push(uint32_t index);
    void doHavoc();
    void emit(uint32_t index, DiagKind kind, Severity sev,
              uint16_t faults, std::string msg);
    void emitOutcome(uint32_t index, const Outcome &o, Ctx ctx,
                     const AbsVal &operand, const Inst &inst,
                     unsigned reg);
    Cfg buildCfg() const;

    const std::vector<Word> &words_;
    const VerifyOptions &opts_;
    const std::vector<isa::SourceLoc> *srcMap_;
    std::vector<std::optional<Inst>> insts_;
    uint32_t progWords_ = 0;
    uint32_t capWords_ = 0;
    uint64_t codeLen_ = 0;
    bool priv_ = false;

    std::vector<State> in_;
    std::vector<char> reached_;
    std::deque<uint32_t> wl_;
    std::vector<char> inWl_;
    bool havocDone_ = false;
    bool record_ = false;
    uint32_t iterations_ = 0;
    std::vector<Diag> diags_;
    /// Per-instruction union of every fault kind any diagnostic found
    /// reachable there (filled by emit() during the record pass); an
    /// empty union earns the elision verdict.
    std::vector<uint16_t> mayFaults_;
};

void
Analyzer::emit(uint32_t index, DiagKind kind, Severity sev,
               uint16_t faults, std::string msg)
{
    if (!record_)
        return;
    if (index < mayFaults_.size())
        mayFaults_[index] |= faults;
    Diag d;
    d.kind = kind;
    d.sev = sev;
    d.index = index;
    d.faults = faults;
    d.message = std::move(msg);
    if (srcMap_ && index < srcMap_->size())
        d.line = (*srcMap_)[index].line;
    diags_.push_back(std::move(d));
}

void
Analyzer::emitOutcome(uint32_t index, const Outcome &o, Ctx ctx,
                      const AbsVal &operand, const Inst &inst,
                      unsigned reg)
{
    if (!o.faults || !record_)
        return;
    const DiagKind kind = operand.kind == Kind::Any
                              ? DiagKind::UnknownValue
                              : kindFor(o.faults, ctx, operand);
    const Severity sev = o.mayOk ? Severity::Warning : Severity::Error;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: %s (r%u)",
                  std::string(isa::opName(inst.op)).c_str(),
                  kindText(kind), reg);
    emit(index, kind, sev, o.faults, buf);
}

void
Analyzer::addEdges(Step &step, uint32_t index,
                   const std::vector<int64_t> &targets, bool may_other)
{
    unsigned ok = 0;
    bool sled = false;
    bool escape = false;
    for (int64_t t : targets) {
        if (t >= 0 && uint64_t(t) < progWords_) {
            step.succs.push_back(uint32_t(t));
            ok++;
        } else if (t >= 0 && uint64_t(t) < capWords_) {
            sled = true; // zero-filled tail of the segment: a NOP sled
        } else {
            escape = true;
        }
    }
    if (sled || escape) {
        // Escaping control flow faults BoundsViolation right here (the
        // IP advance is a LEA); an edge into the NOP sled executes the
        // zero fill and faults BoundsViolation at the segment end.
        const DiagKind kind = (escape && !sled) ? DiagKind::BoundsEscape
                                                : DiagKind::RunOffEnd;
        const Severity sev = (ok == 0 && !may_other) ? Severity::Error
                                                     : Severity::Warning;
        emit(index, kind, sev, faultBit(Fault::BoundsViolation),
             kindText(kind));
    }
}

bool
Analyzer::joinInto(uint32_t index, const State &state)
{
    bool changed = !reached_[index];
    reached_[index] = 1;
    State &dst = in_[index];
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        AbsVal joined = joinVal(dst[r], state[r]);
        if (!(joined == dst[r])) {
            dst[r] = joined;
            changed = true;
        }
    }
    return changed;
}

void
Analyzer::push(uint32_t index)
{
    if (inWl_[index])
        return;
    inWl_[index] = 1;
    wl_.push_back(index);
}

void
Analyzer::doHavoc()
{
    if (havocDone_ || record_)
        return;
    havocDone_ = true;
    State any;
    any.fill(AbsVal::top());
    for (uint32_t j = 0; j < progWords_; ++j) {
        if (joinInto(j, any))
            push(j);
    }
}

Analyzer::Step
Analyzer::transfer(uint32_t index, const State &in)
{
    Step s;
    s.out = in;

    if (words_[index].isPointer()) {
        emit(index, DiagKind::TaggedInstruction, Severity::Error,
             faultBit(Fault::InvalidInstruction),
             kindText(DiagKind::TaggedInstruction));
        return s;
    }
    if (!insts_[index]) {
        emit(index, DiagKind::UndecodableInstruction, Severity::Error,
             faultBit(Fault::InvalidInstruction),
             kindText(DiagKind::UndecodableInstruction));
        return s;
    }
    const Inst &inst = *insts_[index];

    auto setRd = [&](const AbsVal &v) { s.out[inst.rd] = v; };
    auto fall = [&]() {
        addEdges(s, index, {int64_t(index) + 1}, false);
    };
    auto known = [&](const AbsVal &v, uint64_t &out) {
        if (v.kind == Kind::Int && v.intKnown) {
            out = v.intVal;
            return true;
        }
        return false;
    };
    // ALU result when both operand payloads are known constants.
    auto alu2 = [&](uint64_t b, bool b_known) {
        uint64_t a = 0;
        if (b_known && known(in[inst.ra], a)) {
            uint64_t r = 0;
            switch (inst.op) {
              case Op::ADD:
              case Op::ADDI:
                r = a + b;
                break;
              case Op::SUB:
                r = a - b;
                break;
              case Op::MUL:
                r = a * b;
                break;
              case Op::AND:
              case Op::ANDI:
                r = a & b;
                break;
              case Op::OR:
              case Op::ORI:
                r = a | b;
                break;
              case Op::XOR:
              case Op::XORI:
                r = a ^ b;
                break;
              case Op::SHL:
              case Op::SHLI:
                r = a << (b & 63);
                break;
              case Op::SHR:
              case Op::SHRI:
                r = a >> (b & 63);
                break;
              case Op::SRA:
              case Op::SRAI:
                r = uint64_t(int64_t(a) >> (b & 63));
                break;
              case Op::SLT:
                r = int64_t(a) < int64_t(b) ? 1 : 0;
                break;
              case Op::SLTU:
                r = a < b ? 1 : 0;
                break;
              default:
                setRd(AbsVal::intUnknown());
                fall();
                return;
            }
            setRd(AbsVal::intConst(r));
        } else {
            setRd(AbsVal::intUnknown());
        }
        fall();
    };
    auto memOp = [&](bool is_store, unsigned size) {
        const AbsVal &base = in[inst.ra];
        AbsVal eff = base;
        if (inst.imm != 0) {
            XferOut x = leaXfer(base, false, true, inst.imm);
            emitOutcome(index, x.o, Ctx::Lea, base, inst, inst.ra);
            if (!x.o.mayOk)
                return; // every path faults deriving the pointer
            eff = x.res;
        }
        const Outcome o = accessXfer(eff, is_store, size);
        emitOutcome(index, o, Ctx::Access, eff, inst, inst.ra);
        if (!o.mayOk)
            return;
        if (!is_store) {
            // 8-byte loads are tag-preserving; narrow loads are
            // untagged. Memory contents are outside the domain.
            setRd(size == 8 ? AbsVal::top() : AbsVal::intUnknown());
        }
        fall();
    };
    auto leaOp = [&](bool rebase) {
        bool dk = false;
        int64_t d = 0;
        if (inst.op == Op::LEAI || inst.op == Op::LEABI) {
            dk = true;
            d = inst.imm;
        } else {
            uint64_t b = 0;
            if (known(in[inst.rb], b)) {
                dk = true;
                d = int64_t(b);
            }
        }
        XferOut x = leaXfer(in[inst.ra], rebase, dk, d);
        emitOutcome(index, x.o, Ctx::Lea, in[inst.ra], inst, inst.ra);
        if (!x.o.mayOk)
            return;
        setRd(x.res);
        fall();
    };

    switch (inst.op) {
      case Op::NOP:
        fall();
        break;
      case Op::HALT:
        break; // clean termination: no successors, no fault

      case Op::ADD:
      case Op::SUB:
      case Op::MUL:
      case Op::AND:
      case Op::OR:
      case Op::XOR:
      case Op::SHL:
      case Op::SHR:
      case Op::SRA:
      case Op::SLT:
      case Op::SLTU: {
        uint64_t b = 0;
        const bool bk = known(in[inst.rb], b);
        alu2(b, bk);
        break;
      }
      case Op::ADDI:
      case Op::ANDI:
      case Op::ORI:
      case Op::XORI:
        alu2(uint64_t(int64_t(inst.imm)), true);
        break;
      case Op::SHLI:
      case Op::SHRI:
      case Op::SRAI:
        alu2(uint64_t(uint32_t(inst.imm)), true);
        break;
      case Op::MOVI:
        setRd(AbsVal::intConst(uint64_t(int64_t(inst.imm))));
        fall();
        break;
      case Op::LUI:
        setRd(AbsVal::intConst(uint64_t(uint32_t(inst.imm)) << 32));
        fall();
        break;

      case Op::MOV:
        setRd(in[inst.ra]);
        fall();
        break;

      case Op::LD:
        memOp(false, 8);
        break;
      case Op::LDW:
        memOp(false, 4);
        break;
      case Op::LDH:
        memOp(false, 2);
        break;
      case Op::LDB:
        memOp(false, 1);
        break;
      case Op::ST:
        memOp(true, 8);
        break;
      case Op::STW:
        memOp(true, 4);
        break;
      case Op::STH:
        memOp(true, 2);
        break;
      case Op::STB:
        memOp(true, 1);
        break;

      case Op::LEA:
      case Op::LEAI:
        leaOp(false);
        break;
      case Op::LEAB:
      case Op::LEABI:
        leaOp(true);
        break;

      case Op::RESTRICT: {
        uint64_t b = 0;
        const bool bk = known(in[inst.rb], b);
        XferOut x =
            restrictXfer(in[inst.ra], bk, unsigned(b) & 0xf);
        emitOutcome(index, x.o, Ctx::Restrict, in[inst.ra], inst,
                    inst.ra);
        if (!x.o.mayOk)
            return s;
        setRd(x.res);
        fall();
        break;
      }
      case Op::SUBSEG: {
        uint64_t b = 0;
        const bool bk = known(in[inst.rb], b);
        XferOut x = subsegXfer(in[inst.ra], bk, unsigned(b) & 0x3f);
        emitOutcome(index, x.o, Ctx::Subseg, in[inst.ra], inst,
                    inst.ra);
        if (!x.o.mayOk)
            return s;
        setRd(x.res);
        fall();
        break;
      }
      case Op::SETPTR: {
        if (!priv_) {
            emit(index, DiagKind::PrivilegeRequired, Severity::Error,
                 faultBit(Fault::PrivilegeViolation),
                 "setptr: privileged operation in user mode");
            return s;
        }
        uint64_t bits = 0;
        if (known(in[inst.ra], bits)) {
            AbsVal v;
            v.kind = Kind::Ptr;
            v.perms = uint16_t(
                1u << unsigned((bits >> kPermShift) & kPermFieldMask));
            v.lenKnown = true;
            v.lenLog2 = uint8_t((bits >> kLenShift) & kLenFieldMask);
            const uint64_t mask =
                v.lenLog2 >= 63 ? ~uint64_t(0)
                                : ((uint64_t(1) << v.lenLog2) - 1);
            v.offKnown = true;
            v.offset = (bits & kAddrMask) & mask;
            setRd(v);
        } else {
            setRd(AbsVal::pointerAnyGeom(0xffff));
        }
        fall();
        break;
      }
      case Op::ISPTR:
        if (in[inst.ra].kind == Kind::Int)
            setRd(AbsVal::intConst(0));
        else if (in[inst.ra].kind == Kind::Ptr)
            setRd(AbsVal::intConst(1));
        else
            setRd(AbsVal::intUnknown());
        fall();
        break;
      case Op::PTOI: {
        const AbsVal &v = in[inst.ra];
        const Outcome o = ptoiXfer(v);
        emitOutcome(index, o, Ctx::Lea, v, inst, inst.ra);
        if (!o.mayOk)
            return s;
        if (v.kind == Kind::Ptr && v.offKnown)
            setRd(AbsVal::intConst(v.offset));
        else
            setRd(AbsVal::intUnknown());
        fall();
        break;
      }
      case Op::ITOP: {
        uint64_t b = 0;
        const bool bk = known(in[inst.rb], b);
        XferOut x = leaXfer(in[inst.ra], true, bk, int64_t(b));
        emitOutcome(index, x.o, Ctx::Lea, in[inst.ra], inst, inst.ra);
        if (!x.o.mayOk)
            return s;
        setRd(x.res);
        fall();
        break;
      }

      case Op::JMP: {
        const AbsVal &v = in[inst.ra];
        if (v.kind == Kind::Bottom || v.kind == Kind::Int) {
            emitOutcome(index, Outcome::must(Fault::NotAPointer),
                        Ctx::Jump, v, inst, inst.ra);
            return s;
        }
        if (v.kind == Kind::Any) {
            Outcome o;
            o.add(Fault::NotAPointer);
            o.add(Fault::InvalidPermission);
            o.add(Fault::PermissionDenied);
            o.add(Fault::PrivilegeViolation);
            emitOutcome(index, o, Ctx::Jump, v, inst, inst.ra);
            s.havoc = true;
            return s;
        }
        uint16_t faults = 0;
        bool ok_seen = false;
        bool internal = false;
        bool external = false;
        bool misaligned = false;
        int64_t target = -1;
        auto resolve = [&]() {
            ok_seen = true;
            if (v.isCode && v.offKnown) {
                if (v.offset % 8) {
                    misaligned = true; // fetch faults at the target
                } else {
                    internal = true;
                    target = int64_t(v.offset / 8);
                }
            } else {
                external = true;
            }
        };
        for (unsigned p = 0; p < 16; ++p) {
            if (!(v.perms & (1u << p)))
                continue;
            if (!permValid(p)) {
                faults |= faultBit(Fault::InvalidPermission);
                continue;
            }
            switch (Perm(p)) {
              case Perm::ExecuteUser:
                resolve();
                break;
              case Perm::ExecutePrivileged:
                if (!priv_)
                    faults |= faultBit(Fault::PrivilegeViolation);
                else
                    resolve();
                break;
              case Perm::EnterUser:
              case Perm::EnterPrivileged:
                // Call-gate crossing into another protection domain:
                // always modeled as an external callee.
                ok_seen = true;
                external = true;
                break;
              default: // Key, ReadOnly, ReadWrite
                faults |= faultBit(Fault::PermissionDenied);
                break;
            }
        }
        Outcome o;
        o.faults = faults;
        o.mayOk = ok_seen;
        emitOutcome(index, o, Ctx::Jump, v, inst, inst.ra);
        if (misaligned) {
            emit(index, DiagKind::MisalignedAccess, Severity::Warning,
                 faultBit(Fault::Misaligned),
                 "jmp: target is not instruction-aligned");
        }
        if (!ok_seen)
            return s;
        if (internal) {
            addEdges(s, index, {target},
                     external || misaligned || faults != 0);
        }
        if (external)
            s.havoc = true;
        break;
      }
      case Op::GETIP: {
        AbsVal v = AbsVal::pointer(priv_ ? Perm::ExecutePrivileged
                                         : Perm::ExecuteUser,
                                   codeLen_, 8ull * index);
        v.isCode = true;
        setRd(v);
        fall();
        break;
      }

      case Op::BEQ:
      case Op::BNE:
      case Op::BLT:
      case Op::BGE: {
        // Branches compare the rd and ra register operands.
        const AbsVal &x = in[inst.rd];
        const AbsVal &y = in[inst.ra];
        int fold = -1; // -1 unknown, 0 not taken, 1 taken
        if (inst.rd == inst.ra) {
            fold = (inst.op == Op::BEQ || inst.op == Op::BGE) ? 1 : 0;
        } else if (x.kind == Kind::Int && y.kind == Kind::Int &&
                   x.intKnown && y.intKnown) {
            bool taken = false;
            switch (inst.op) {
              case Op::BEQ:
                taken = x.intVal == y.intVal;
                break;
              case Op::BNE:
                taken = x.intVal != y.intVal;
                break;
              case Op::BLT:
                taken = int64_t(x.intVal) < int64_t(y.intVal);
                break;
              default:
                taken = int64_t(x.intVal) >= int64_t(y.intVal);
                break;
            }
            fold = taken ? 1 : 0;
        } else if ((x.kind == Kind::Int && y.kind == Kind::Ptr) ||
                   (x.kind == Kind::Ptr && y.kind == Kind::Int)) {
            // Tags differ, so full-word equality is decided.
            if (inst.op == Op::BEQ)
                fold = 0;
            else if (inst.op == Op::BNE)
                fold = 1;
        }
        std::vector<int64_t> targets;
        if (fold != 0)
            targets.push_back(int64_t(index) + 1 + inst.imm);
        if (fold != 1)
            targets.push_back(int64_t(index) + 1);
        addEdges(s, index, targets, false);
        break;
      }

      default:
        fall();
        break;
    }
    return s;
}

Cfg
Analyzer::buildCfg() const
{
    Cfg cfg;
    if (progWords_ == 0)
        return cfg;
    std::vector<char> leader(progWords_, 0);
    leader[0] = 1;
    for (uint32_t h : opts_.leaderHints) {
        if (h < progWords_)
            leader[h] = 1;
    }
    auto isBranch = [&](uint32_t i) {
        if (!insts_[i])
            return false;
        const Op op = insts_[i]->op;
        return op == Op::BEQ || op == Op::BNE || op == Op::BLT ||
               op == Op::BGE;
    };
    auto isTerm = [&](uint32_t i) {
        if (!insts_[i])
            return true;
        const Op op = insts_[i]->op;
        return op == Op::JMP || op == Op::HALT || isBranch(i);
    };
    for (uint32_t i = 0; i < progWords_; ++i) {
        if (isBranch(i)) {
            const int64_t t = int64_t(i) + 1 + insts_[i]->imm;
            if (t >= 0 && uint64_t(t) < progWords_)
                leader[uint64_t(t)] = 1;
        }
        if (isTerm(i) && i + 1 < progWords_)
            leader[i + 1] = 1;
    }
    for (uint32_t i = 0; i < progWords_;) {
        BasicBlock bb;
        bb.first = i;
        uint32_t j = i;
        while (j + 1 < progWords_ && !isTerm(j) && !leader[j + 1])
            j++;
        bb.last = j;
        if (isBranch(j)) {
            const int64_t t = int64_t(j) + 1 + insts_[j]->imm;
            if (t >= 0 && uint64_t(t) < progWords_)
                bb.succs.push_back(uint32_t(t));
            if (j + 1 < progWords_)
                bb.succs.push_back(j + 1);
        } else if (insts_[j] && insts_[j]->op != Op::JMP &&
                   insts_[j]->op != Op::HALT && j + 1 < progWords_) {
            bb.succs.push_back(j + 1);
        }
        cfg.blocks.push_back(std::move(bb));
        i = j + 1;
    }
    return cfg;
}

VerifyResult
Analyzer::run()
{
    VerifyResult res;
    res.instructions = progWords_;
    if (progWords_ == 0) {
        res.cfg = buildCfg();
        return res;
    }

    State entry;
    entry.fill(AbsVal::entryZero());
    const std::map<unsigned, AbsVal> regs =
        opts_.entryRegs.empty() ? defaultEntryRegs() : opts_.entryRegs;
    for (const auto &[r, v] : regs) {
        if (r < isa::kNumRegs)
            entry[r] = v;
    }

    in_.assign(progWords_, State{});
    reached_.assign(progWords_, 0);
    inWl_.assign(progWords_, 0);
    joinInto(0, entry);
    push(0);

    while (!wl_.empty()) {
        const uint32_t i = wl_.front();
        wl_.pop_front();
        inWl_[i] = 0;
        iterations_++;
        Step s = transfer(i, in_[i]);
        if (s.havoc)
            doHavoc();
        for (uint32_t t : s.succs) {
            if (joinInto(t, s.out))
                push(t);
        }
    }

    // Recording pass: re-run each reachable instruction's transfer on
    // its fixed entry state, with diagnostics enabled, so every
    // violation is reported exactly once.
    record_ = true;
    mayFaults_.assign(progWords_, 0);
    uint32_t reachable = 0;
    for (uint32_t i = 0; i < progWords_; ++i) {
        if (!reached_[i])
            continue;
        reachable++;
        transfer(i, in_[i]);
    }

    // Elision verdicts: an instruction with an empty recorded
    // may-fault union can never fault. Any may-fact withholds the
    // verdict, so everything downstream of an unresolvable JMP (havoc
    // joins top into every state) degrades to no-elide automatically;
    // an unreached instruction gets no proof either.
    res.verdicts.assign(progWords_, 0);
    for (uint32_t i = 0; i < progWords_; ++i) {
        if (reached_[i] && mayFaults_[i] == 0)
            res.verdicts[i] = isa::kElideNeverFaults;
    }

    res.diags = std::move(diags_);
    res.reachable = reachable;
    res.iterations = iterations_;
    res.cfg = buildCfg();
    return res;
}

} // namespace

VerifyResult
verifyWords(const std::vector<Word> &words, const VerifyOptions &opts,
            const std::vector<isa::SourceLoc> *src_map)
{
    Analyzer analyzer(words, opts, src_map);
    return analyzer.run();
}

isa::ElideProof
makeElideProof(const VerifyResult &result,
               const std::vector<Word> &words, bool privileged,
               uint64_t base)
{
    isa::ElideProof proof;
    proof.base = base;
    proof.privileged = privileged;
    proof.bits.reserve(words.size());
    for (const Word &w : words)
        proof.bits.push_back(w.bits());
    proof.verdicts = result.verdicts;
    // A result from a shorter/older analysis never licenses elision
    // past what it proved.
    proof.verdicts.resize(words.size(), 0);
    return proof;
}

} // namespace gp::verify
