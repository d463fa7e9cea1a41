/**
 * @file
 * Per-thread architectural state.
 *
 * A thread is sixteen tagged general-purpose registers plus a tagged
 * instruction pointer — nothing else. There is no protection-domain
 * register, no segment table pointer, no ASID: the thread's protection
 * domain is exactly the transitive closure of the pointers in its
 * registers (paper §3), which is why switching threads costs zero
 * cycles of protection work.
 */

#ifndef GP_ISA_THREAD_H
#define GP_ISA_THREAD_H

#include <cstdint>

#include "gp/fault.h"
#include "gp/word.h"
#include "isa/inst.h"

namespace gp::isa {

/** Scheduling state of a thread slot. */
enum class ThreadState : uint8_t
{
    Idle,    //!< slot unoccupied
    Ready,   //!< may issue when stallUntil has passed
    Halted,  //!< executed HALT
    Faulted, //!< took an unhandled architectural fault
    /** Parked on a cross-shard memory access under the sharded mesh
     * engine: the instruction is in flight as a split transaction and
     * the thread resumes when the epoch barrier delivers the result.
     * A Pending thread is live (not a free slot, not done). */
    Pending,
};

/** Details of an architectural fault taken by a thread. */
struct FaultRecord
{
    Fault fault = Fault::None;
    Word ip;            //!< IP of the faulting instruction
    uint64_t cycle = 0; //!< machine cycle of the fault
};

/** One hardware thread slot of a cluster. */
class Thread
{
  public:
    Thread() = default;

    /** (Re)initialize the slot with an entry instruction pointer. */
    void
    start(Word entry_ip, uint32_t id)
    {
        for (auto &r : regs_)
            r = Word{};
        ip_ = entry_ip;
        id_ = id;
        state_ = ThreadState::Ready;
        stallUntil_ = 0;
        instsRetired_ = 0;
        faultRecord_ = FaultRecord{};
        ipProven_ = false;
    }

    const Word &reg(unsigned i) const { return regs_[i]; }
    void setReg(unsigned i, Word w) { regs_[i] = w; }

    Word ip() const { return ip_; }

    /** Install an arbitrary IP (jump, fault handler): voids the IP
     * proof, so the next fetch runs the full pointer check. */
    void
    setIp(Word ip)
    {
        ip_ = ip;
        ipProven_ = false;
    }

    /**
     * Move the IP by a multiple of 8 bytes within its segment (what a
     * successful checked gp::lea produces). Only the address field
     * changes and it stays inside the segment, so the IP proof
     * survives.
     */
    void stepIp(Word next) { ip_ = next; }

    // --- IP proof (microarchitectural, not architectural state): a
    // fetch check passed on the current IP pointer, so it has the
    // execute right, is 8-aligned, and its segment holds at least 8
    // bytes. Those facts depend only on the pointer's permission and
    // length fields plus the address's low bits and segment, which a
    // stepIp() preserves — so checkAccess(ip, InstFetch, 8) cannot
    // fire and the privilege bit cannot change until some other IP
    // write (setIp, start, takeFault) voids the proof.
    bool ipProven() const { return ipProven_; }
    /** Privilege of the proven IP (valid only while ipProven()). */
    bool ipPrivileged() const { return ipPrivileged_; }
    /** gp::segmentMask of the proven IP's segment: an advance keeps
     * the IP in-segment iff it changes none of these address bits
     * (valid only while ipProven()). */
    uint64_t ipSegmentMask() const { return ipSegmentMask_; }
    void
    proveIp(bool privileged, uint64_t segment_mask)
    {
        ipProven_ = true;
        ipPrivileged_ = privileged;
        ipSegmentMask_ = segment_mask;
    }

    ThreadState state() const { return state_; }
    void halt() { state_ = ThreadState::Halted; }

    /** Record an unhandled fault and stop the thread. */
    void
    takeFault(Fault f, uint64_t cycle)
    {
        faultRecord_ = FaultRecord{f, ip_, cycle};
        state_ = ThreadState::Faulted;
        // Whatever resumes the thread (handler Retry/Resume, a new
        // start) re-proves its IP with a checked fetch.
        ipProven_ = false;
    }

    /**
     * Return a faulted thread to the run queue (used by the machine's
     * software fault handler after it has repaired the cause). The
     * fault record is kept for inspection.
     */
    void
    resumeFromFault()
    {
        if (state_ == ThreadState::Faulted)
            state_ = ThreadState::Ready;
    }

    const FaultRecord &faultRecord() const { return faultRecord_; }

    /** Park on a cross-shard split transaction (Ready -> Pending). */
    void
    park()
    {
        if (state_ == ThreadState::Ready)
            state_ = ThreadState::Pending;
    }

    /** Resume after the split transaction completed. */
    void
    unpark()
    {
        if (state_ == ThreadState::Pending)
            state_ = ThreadState::Ready;
    }

    uint64_t stallUntil() const { return stallUntil_; }
    void stallTo(uint64_t cycle) { stallUntil_ = cycle; }

    uint32_t id() const { return id_; }

    uint64_t instsRetired() const { return instsRetired_; }
    void retire() { instsRetired_++; }

  private:
    Word regs_[kNumRegs];
    Word ip_;
    ThreadState state_ = ThreadState::Idle;
    uint64_t stallUntil_ = 0;
    uint64_t instsRetired_ = 0;
    uint32_t id_ = 0;
    FaultRecord faultRecord_;
    bool ipProven_ = false;      //!< see ipProven()
    bool ipPrivileged_ = false;  //!< privilege of the proven IP
    uint64_t ipSegmentMask_ = 0; //!< segment mask of the proven IP
};

} // namespace gp::isa

#endif // GP_ISA_THREAD_H
