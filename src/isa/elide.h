/**
 * @file
 * Elision verdicts: the proof the verifier derives in-process and the
 * machine consumes to skip statically-proven guarded-pointer checks.
 *
 * The verifier's record pass (src/verify) accumulates, per
 * instruction, the union of every fault kind any concretization of
 * the abstract entry state may raise there. An empty union is a
 * *must-safe* proof: kElideNeverFaults asserts that no check can ever
 * fire on this instruction, for any execution from the declared entry
 * state. The machine bakes the verdict into the predecoded-instruction
 * cache (decode time, never per-execute) and, when it holds, runs the
 * unchecked fast path.
 *
 * Soundness guards (see docs/VERIFIER.md "Check elision"):
 *  - any may-fact at an instruction withholds the verdict — indirect
 *    jumps the fixpoint cannot resolve havoc the state, so everything
 *    reachable only through them keeps full checks;
 *  - a verdict is bound to the exact instruction bits it was proven
 *    for; the machine's raw-bits re-validation drops the verdict the
 *    moment code is overwritten (self-modifying code re-arms checks);
 *  - the proof records the privilege mode it was established under
 *    (kElidePrivileged); executing the same bytes at a different
 *    privilege falls back to full checks;
 *  - fault injection and installed fault handlers disable elision
 *    wholesale at run time.
 */

#ifndef GP_ISA_ELIDE_H
#define GP_ISA_ELIDE_H

#include <cstdint>
#include <vector>

namespace gp::isa {

/// No architectural fault of any kind is reachable here: the machine
/// may run the instruction's unchecked datapath.
inline constexpr uint8_t kElideNeverFaults = 1u << 0;
/// Privilege mode the proof was established under (set = verified
/// with an execute-privileged instruction pointer). Baked from
/// ElideProof::privileged, compared against the thread's actual
/// privilege at execute time.
inline constexpr uint8_t kElidePrivileged = 1u << 1;

/**
 * The static half of the machine's elision gate: does this baked
 * verdict entitle an instruction to the unchecked datapath when
 * executed at the given privilege? The caller still owns the dynamic
 * half (no fault handler installed, fault injector unarmed).
 */
inline constexpr bool
verdictElides(uint8_t verdict, bool privileged)
{
    return (verdict & kElideNeverFaults) != 0 &&
           bool(verdict & kElidePrivileged) == privileged;
}

/**
 * Per-instruction safety proof for one loaded image: a verdict byte
 * per instruction word, bound to the exact raw bits and load base it
 * was computed for.
 */
struct ElideProof
{
    /// Virtual address the image was verified for (loader base).
    uint64_t base = 0;
    /// Proof established under an execute-privileged entry IP.
    bool privileged = false;
    /// Raw 64-bit payload of each instruction word at proof time; the
    /// machine only applies verdicts[i] when the fetched bits match.
    std::vector<uint64_t> bits;
    /// Verdict byte per instruction (kElideNeverFaults or 0; the
    /// privilege bit is proof-global and baked in by the consumer).
    std::vector<uint8_t> verdicts;
};

} // namespace gp::isa

#endif // GP_ISA_ELIDE_H
