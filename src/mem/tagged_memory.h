/**
 * @file
 * Tagged physical memory.
 *
 * Every 64-bit word of storage carries the pointer-tag bit (the 1.5%
 * storage overhead quantified in §4.1). Storage is sparse: only words
 * that have been written occupy host memory, so the full 54-bit space
 * can be exercised on a laptop.
 *
 * Tag semantics at sub-word granularity: only aligned 8-byte accesses
 * can read or write a tagged word intact. Writing any smaller quantity
 * into a word clears its tag — partially overwriting a pointer must
 * destroy the capability, never yield a forged one.
 *
 * Hardening (ISSUE 4): each stored word optionally carries a check
 * byte computed by mem/ecc.h — one parity bit or a full SECDED code
 * over all 65 bits. The raw-bit corruption API below models radiation
 * or disturbance faults by flipping *stored* state (payload, tag, or
 * check bits) without updating the code, exactly what a real upset
 * does; readWordChecked() then detects/corrects on the way out.
 */

#ifndef GP_MEM_TAGGED_MEMORY_H
#define GP_MEM_TAGGED_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gp/word.h"
#include "mem/ecc.h"

namespace gp::mem {

/** A word read through the ECC check path. */
struct CheckedWord
{
    Word word{};
    EccStatus status = EccStatus::Ok;
};

/** Sparse tagged word-addressable physical memory. */
class TaggedMemory
{
  public:
    TaggedMemory() = default;

    /**
     * Select the hardening code. Re-encodes every resident word so
     * the switch is always consistent; call before loading a program
     * to model a machine built with that code.
     */
    void setEccMode(EccMode mode);

    /** Read the full tagged word containing byte address addr. */
    Word
    readWord(uint64_t addr) const
    {
        auto it = store_.find(addr >> 3);
        return it == store_.end() ? Word{} : it->second.w;
    }

    /** Write a full tagged word at 8-byte-aligned byte address addr. */
    void
    writeWord(uint64_t addr, Word w)
    {
        Cell &c = store_[addr >> 3];
        c.w = w;
        c.upset = false;
        if (ecc_ != EccMode::None)
            c.check = eccEncode(ecc_, w.bits(), w.isPointer());
    }

    /**
     * Read one word through the ECC decode path. With SECDED a
     * single-bit error (payload, tag, or check) is repaired *in
     * storage* (persistent scrub) and reported as Corrected; an
     * uncorrectable error returns Detected and the word must not be
     * consumed architecturally. With EccMode::None this is exactly
     * readWord().
     *
     * Only a word an upset touched since it was last encoded is
     * decoded: any other stored word is a codeword and decodes Ok by
     * the code's definition, so skipping its decode is host-only.
     */
    CheckedWord
    readWordChecked(uint64_t addr)
    {
        auto it = store_.find(addr >> 3);
        if (it == store_.end())
            return CheckedWord{};
        Cell &cell = it->second;
        return cell.upset ? decodeUpset(cell)
                          : CheckedWord{cell.w, EccStatus::Ok};
    }

    /**
     * The tagged-data step every memory port (MemorySystem,
     * noc::NodeMemory, FastPort) finishes an access with, after its
     * own pointer check and translation. A load reads the word
     * containing @p addr through the ECC check — the whole stored
     * word, whatever the access size — and for size < 8 returns the
     * zero-extended sub-word with the tag dropped. A store writes an
     * 8-byte @p value intact (tag kept) or merges a sub-word into the
     * containing word (tag cleared), and reports Ok. A Detected load
     * must not be consumed architecturally.
     */
    CheckedWord
    access(bool is_store, uint64_t addr, unsigned size,
           Word value = Word{})
    {
        if (is_store) {
            if (size == 8)
                writeWord(addr, value);
            else
                writeSubWord(addr, size, value.bits());
            return CheckedWord{};
        }
        return size == 8 ? readWordChecked(addr) : loadSubWord(addr, size);
    }

    /** @return number of distinct words ever written. */
    size_t wordsAllocated() const { return store_.size(); }

    /** Drop all contents. */
    void clear() { store_.clear(); }

    // ---- fault-injection / corruption API ------------------------

    /**
     * Flip one stored bit of the word containing @p addr without
     * updating the check byte (a genuine storage upset). Bit index:
     * 0..63 = payload bit, 64 = tag bit, 65..72 = check bit 0..7.
     * @return false when no word is resident at addr (nothing flips).
     */
    bool flipStoredBit(uint64_t addr, unsigned bit);

    /** Sorted byte addresses of every resident word. */
    std::vector<uint64_t> wordAddrs() const;

    /** Sorted byte addresses of resident words with the tag set. */
    std::vector<uint64_t> taggedWordAddrs() const;

    /** Words repaired by SECDED since construction/clear. */
    uint64_t eccCorrected() const { return eccCorrected_; }

    /** Uncorrectable errors detected since construction/clear. */
    uint64_t eccDetected() const { return eccDetected_; }

  private:
    /**
     * One resident word: payload+tag plus its stored check byte.
     * `upset` is host-only: set when flipStoredBit() changed a stored
     * bit, cleared once the word is a codeword again (a write, a
     * re-encode, a repair or an Ok decode).
     */
    struct Cell
    {
        Word w{};
        uint8_t check = 0;
        bool upset = false;
    };
    static_assert(sizeof(Cell) == 24, "upset must sit in Cell padding");

    /** Decode an upset cell: repair, count, and clear what is clean. */
    CheckedWord decodeUpset(Cell &cell);

    /** A checked 1/2/4-byte load: zero-extended, the tag dropped. */
    CheckedWord loadSubWord(uint64_t addr, unsigned size);

    /** Merge a 1/2/4-byte store into its word, clearing the tag. */
    void writeSubWord(uint64_t addr, unsigned size, uint64_t value);

    EccMode ecc_ = EccMode::None;
    std::unordered_map<uint64_t, Cell> store_;
    uint64_t eccCorrected_ = 0;
    uint64_t eccDetected_ = 0;
};

} // namespace gp::mem

#endif // GP_MEM_TAGGED_MEMORY_H
