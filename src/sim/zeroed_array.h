/**
 * @file
 * A flat array whose all-zero bytes mean "empty", kept in recycled
 * all-zero blocks.
 *
 * A machine's direct-mapped tables (the predecode array, the cache's
 * line array) are large, but a run writes only a few pages of each:
 * a 64-node mesh node touches 1-4 of the 32 pages of each 128 KiB
 * array. ZeroedArray takes its storage from a per-thread list of
 * blocks that are all zero bytes:
 *
 * - A fresh block is an anonymous mapping, so its pages are backed
 *   only once written. A PROT_NONE guard page follows it, and the
 *   array ends exactly at the guard, so indexing past size() faults
 *   in every build.
 * - The owner records which of kChunks chunks it wrote (fill()), and
 *   clear() and the destructor zero only those chunks. A block goes
 *   back on the list all zero, so the next owner needs to clear
 *   nothing: in steady state, building an array makes no system call
 *   and writes no byte.
 *
 * Indexing is plain pointer arithmetic, as with std::vector. The
 * owner's one rule: write a slot through fill() unless its chunk was
 * already written since the last clear() (an in-place update of a
 * slot that fill() produced is fine). T's zero bytes must be T{}.
 * Blocks never cross threads: an array returns its block to the list
 * of the thread that destroys it.
 */

#ifndef GP_SIM_ZEROED_ARRAY_H
#define GP_SIM_ZEROED_ARRAY_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace gp::sim {

/**
 * @return @p bytes of all-zero memory whose last byte sits just
 * before a PROT_NONE guard page, from this thread's list of returned
 * blocks when one fits, else from a fresh anonymous mapping. Throws
 * std::bad_alloc if the mapping fails.
 */
void *takeZeroBlock(size_t bytes);

/**
 * Return a block from takeZeroBlock(@p bytes), every byte of which
 * the caller has set back to zero, to this thread's list.
 */
void giveZeroBlock(void *block, size_t bytes);

/** Fixed-size array of T, all T{} when built; see the file comment. */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroedArray clears slots by zeroing their bytes");

  public:
    /// Chunks the written mask tracks: one bit of a uint64_t each.
    static constexpr unsigned kChunks = 64;

    explicit ZeroedArray(size_t n)
        : data_(static_cast<T *>(takeZeroBlock(bytesFor(n)))),
          size_(n),
          chunkShift_(chunkShiftFor(n))
    {
    }

    ~ZeroedArray()
    {
        clear();
        giveZeroBlock(data_, size_ * sizeof(T));
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    size_t size() const { return size_; }

    /// Slot @p i, unchecked. Write through it only where fill() has
    /// already marked the chunk.
    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    /// Slot @p i, about to be written: marks its chunk.
    T &
    fill(size_t i)
    {
        written_ |= uint64_t(1) << (i >> chunkShift_);
        return data_[i];
    }

    /// Bit c set: chunk c, slots [c * chunkSize(), (c + 1) *
    /// chunkSize()), was written since the last clear().
    uint64_t written() const { return written_; }

    size_t chunkSize() const { return size_t(1) << chunkShift_; }

    /// Call @p f on every slot of each written chunk; the rest are T{}.
    template <typename F>
    void
    forEachWritten(F &&f)
    {
        forEachWrittenRange([&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                f(data_[i]);
        });
    }

    /// Set every slot back to T{}, zeroing only the written chunks.
    void
    clear()
    {
        forEachWrittenRange([&](size_t lo, size_t hi) {
            std::memset(static_cast<void *>(data_ + lo), 0,
                        (hi - lo) * sizeof(T));
        });
        written_ = 0;
    }

  private:
    static size_t
    bytesFor(size_t n)
    {
        if (n > SIZE_MAX / sizeof(T))
            throw std::bad_alloc();
        return n * sizeof(T);
    }

    /// Smallest power-of-two chunk that covers @p n slots in kChunks.
    static unsigned
    chunkShiftFor(size_t n)
    {
        unsigned s = 0;
        while ((size_t(kChunks) << s) < n)
            ++s;
        return s;
    }

    /// Call @p f(lo, hi) on the slot range of each written chunk.
    template <typename F>
    void
    forEachWrittenRange(F &&f) const
    {
        for (uint64_t m = written_; m; m &= m - 1) {
            const size_t lo = size_t(__builtin_ctzll(m)) << chunkShift_;
            const size_t end = lo + chunkSize();
            f(lo, end < size_ ? end : size_);
        }
    }

    T *data_;
    size_t size_;
    unsigned chunkShift_;
    uint64_t written_ = 0;
};

} // namespace gp::sim

#endif // GP_SIM_ZEROED_ARRAY_H
