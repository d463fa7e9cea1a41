/**
 * @file
 * gpverify — static capability-flow verification for guarded-pointer
 * programs.
 *
 * The paper's central claim (§2.2) is that guarded pointers make
 * capability safety machine-checkable: arithmetic can never forge a
 * pointer, RESTRICT/SUBSEG only shrink rights, and every dereference
 * is bounds-checked by a masked comparator. This module exploits that
 * discipline *statically*: it decodes an assembled image into a CFG,
 * runs a forward dataflow fixpoint in which every register holds an
 * abstract value over the Perm rights lattice, and reports capability
 * violations that are provable before the program ever runs.
 *
 * Verdict semantics (see docs/VERIFIER.md for the soundness argument):
 *  - An **error** diagnostic is a must-fault: every concretization of
 *    the abstract state faults at that instruction, with a kind drawn
 *    from the diagnostic's fault mask.
 *  - A **warning** is a may-fault: some concretization faults, some
 *    does not (unknown offsets, joined permissions, values loaded
 *    from memory).
 *  - A program with no diagnostics at all is *strictly clean*: no
 *    execution from the declared entry state can raise a capability
 *    fault. The differential harness (tests/verify) checks this
 *    verdict against the gp_isa machine's fault taxonomy.
 */

#ifndef GP_VERIFY_VERIFIER_H
#define GP_VERIFY_VERIFIER_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gp/fault.h"
#include "gp/permission.h"
#include "gp/word.h"
#include "isa/assembler.h"
#include "isa/elide.h"

namespace gp::verify {

/**
 * Abstract value of one register: an element of the lattice
 *
 *          Any (top)
 *         /        \
 *       Int        Ptr{perm set, geometry facts}
 *         \        /
 *          Bottom
 *
 * Int may carry a known constant (needed to decide RESTRICT/SUBSEG
 * operands statically); Ptr carries a *may*-set of permissions over
 * the rights lattice plus optional segment-length, offset, and
 * alignment facts used by the bounds and alignment checks.
 */
struct AbsVal
{
    enum class Kind : uint8_t
    {
        Bottom, //!< unreachable / no information yet
        Int,    //!< definitely untagged
        Ptr,    //!< definitely tagged
        Any,    //!< may be either
    };

    Kind kind = Kind::Bottom;

    // --- Int facts ---
    bool intKnown = false; //!< constant value is known
    uint64_t intVal = 0;
    /// Still the all-zero value a thread slot starts with, i.e. the
    /// register was never written on any path (use-before-define).
    bool neverWritten = false;

    // --- Ptr facts ---
    /// May-set of the 4-bit permission encodings (bit p = raw perm p).
    uint16_t perms = 0;
    bool lenKnown = false;
    uint8_t lenLog2 = 0;
    bool offKnown = false;
    uint64_t offset = 0;   //!< byte offset within the segment
    /// When the offset is unknown, it is still a multiple of
    /// 2^alignLog2 (congruence fact, carries alignment through loops).
    uint8_t alignLog2 = 0;
    /// Must-fact: points into this program's own code segment with
    /// `offset` = byte offset from the code base (enables static
    /// resolution of GETIP/LEA-derived jump targets).
    bool isCode = false;

    static AbsVal bottom() { return AbsVal{}; }

    static AbsVal
    top()
    {
        AbsVal v;
        v.kind = Kind::Any;
        return v;
    }

    static AbsVal
    intConst(uint64_t value)
    {
        AbsVal v;
        v.kind = Kind::Int;
        v.intKnown = true;
        v.intVal = value;
        return v;
    }

    static AbsVal
    intUnknown()
    {
        AbsVal v;
        v.kind = Kind::Int;
        return v;
    }

    /** The entry value of an uninitialized register: integer zero. */
    static AbsVal
    entryZero()
    {
        AbsVal v = intConst(0);
        v.neverWritten = true;
        return v;
    }

    /** A pointer with one known permission and known geometry. */
    static AbsVal
    pointer(Perm perm, uint64_t len_log2, uint64_t off = 0)
    {
        AbsVal v;
        v.kind = Kind::Ptr;
        v.perms = uint16_t(1u << unsigned(perm));
        v.lenKnown = true;
        v.lenLog2 = uint8_t(len_log2);
        v.offKnown = true;
        v.offset = off;
        return v;
    }

    /** A pointer about which only the permission may-set is known. */
    static AbsVal
    pointerAnyGeom(uint16_t perm_mask)
    {
        AbsVal v;
        v.kind = Kind::Ptr;
        v.perms = perm_mask;
        return v;
    }

    bool operator==(const AbsVal &other) const = default;
};

/** Least upper bound of two abstract values (CFG merge points). */
AbsVal joinVal(const AbsVal &a, const AbsVal &b);

/** Diagnostic taxonomy: the statically-detected violation classes. */
enum class DiagKind : uint8_t
{
    UseBeforeDefPointer,    //!< never-written register used as pointer
    DerefNotPointer,        //!< load/store/jump base is an integer
    DerefNoAccess,          //!< rights set forbids the access kind
    DerefInvalidPerm,       //!< None or undefined permission encoding
    PointerImmutable,       //!< LEA/LEAB/PTOI on an enter/key pointer
    RestrictNotSubset,      //!< RESTRICT target not a strict subset
    RestrictInvalidPerm,    //!< RESTRICT to an undefined encoding
    SubsegNotSmaller,       //!< SUBSEG does not shrink the segment
    JumpNotExecutable,      //!< jump through non-execute/enter value
    PrivilegeRequired,      //!< SETPTR (or exec-priv jump) in user mode
    TaggedInstruction,      //!< tagged word in the instruction stream
    UndecodableInstruction, //!< bad opcode or register encoding
    BoundsEscape,           //!< derivation/branch escapes the segment
    RunOffEnd,              //!< control flow runs off the code segment
    MisalignedAccess,       //!< access not naturally aligned
    UnknownValue,           //!< operation on a value the analysis lost
};

/** @return a stable name for a diagnostic kind. */
std::string_view diagKindName(DiagKind kind);

/** Must-fault (error) vs. may-fault (warning). */
enum class Severity : uint8_t
{
    Error,
    Warning,
};

/** Bit for a fault kind inside Diag::faults. */
constexpr uint16_t
faultBit(Fault f)
{
    return uint16_t(1u << unsigned(f));
}

/** One reported violation, tied back to the source via the line. */
struct Diag
{
    DiagKind kind = DiagKind::UnknownValue;
    Severity sev = Severity::Warning;
    uint32_t index = 0;  //!< instruction index in the image
    int line = 0;        //!< 1-based source line (0 when unmapped)
    uint16_t faults = 0; //!< mask of possible gp::Fault kinds
    std::string message;

    /** @return true when every concretization faults here. */
    bool mustFault() const { return sev == Severity::Error; }
};

/** @return "kind-a|kind-b" rendering of a fault mask. */
std::string faultMaskNames(uint16_t mask);

/** A basic block of the decoded program. */
struct BasicBlock
{
    uint32_t first = 0; //!< index of the leader instruction
    uint32_t last = 0;  //!< index of the final instruction (inclusive)
    /// Statically-known successor leaders (branch targets and
    /// fall-throughs; indirect JMP successors are resolved during the
    /// dataflow pass, not here).
    std::vector<uint32_t> succs;
};

/** Control-flow graph over the assembled image. */
struct Cfg
{
    std::vector<BasicBlock> blocks;
};

/** Analysis entry-state and mode configuration. */
struct VerifyOptions
{
    /// Program runs with an execute-privileged instruction pointer
    /// (gpsim --privileged): SETPTR is legal, GETIP yields
    /// execute-privileged pointers.
    bool privileged = false;

    /// Entry register values. When empty, defaultEntryRegs(4096) is
    /// used — the gpsim convention (r1 = read/write data segment,
    /// r2 = integer thread index, others zero).
    std::map<unsigned, AbsVal> entryRegs;

    /// Extra basic-block leader indices (assembler label metadata);
    /// verifyProgram fills this from Assembly::labels.
    std::vector<uint32_t> leaderHints;
};

/**
 * gpsim's spawn convention: r1 = read/write pointer to a private data
 * segment of the given size, r2 = untagged thread index, everything
 * else the architectural zero.
 */
std::map<unsigned, AbsVal> defaultEntryRegs(uint64_t data_bytes = 4096);

/** Full analysis result: diagnostics plus CFG/fixpoint metadata. */
struct VerifyResult
{
    std::vector<Diag> diags;
    Cfg cfg;
    uint32_t instructions = 0; //!< words in the image
    uint32_t reachable = 0;    //!< instructions reached by the fixpoint
    uint32_t iterations = 0;   //!< worklist pops until the fixpoint

    /**
     * Per-instruction elision verdict byte: isa::kElideNeverFaults
     * when the record pass found *no* fault of any kind reachable at
     * that instruction — the bit that licenses the machine's
     * unchecked datapath — else 0. Unreached instructions and
     * undecodable/tagged words get 0 (no proof).
     */
    std::vector<uint8_t> verdicts;

    size_t
    errorCount() const
    {
        size_t n = 0;
        for (const Diag &d : diags)
            n += d.sev == Severity::Error;
        return n;
    }

    size_t warningCount() const { return diags.size() - errorCount(); }

    /** @return true when no must-fault diagnostics were found. */
    bool ok() const { return errorCount() == 0; }

    /**
     * @return true when there are no diagnostics at all — the strong
     * verdict the differential harness holds against the machine: no
     * execution from the entry state raises a capability fault.
     */
    bool clean() const { return diags.empty(); }

    /** The first diagnostic at an instruction index, if any. */
    const Diag *at(uint32_t index) const;

    /**
     * Render a compiler-style report ("file:line: error: ...") with
     * source echo lines taken from the assembly's source map.
     */
    std::string report(std::string_view file,
                       const isa::Assembly *source = nullptr) const;
};

/**
 * Verify a raw instruction image. @param src_map optional
 * per-instruction source locations for file:line diagnostics.
 */
VerifyResult verifyWords(const std::vector<Word> &words,
                         const VerifyOptions &opts = {},
                         const std::vector<isa::SourceLoc> *src_map =
                             nullptr);

/** Verify an assembled program, wiring up its source map. */
VerifyResult verifyProgram(const isa::Assembly &assembly,
                           const VerifyOptions &opts = {});

/**
 * Package a verification result as the machine-consumable proof:
 * verdict bytes bound to the exact instruction bits and the load
 * base / privilege mode they were established for. @param words
 * must be the image passed to verifyWords; @param privileged must
 * match the VerifyOptions the result came from, @param base the
 * address the image will be loaded at.
 */
isa::ElideProof makeElideProof(const VerifyResult &result,
                               const std::vector<Word> &words,
                               bool privileged, uint64_t base);

} // namespace gp::verify

#endif // GP_VERIFY_VERIFIER_H
