#include "sim/zeroed_array.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <vector>

namespace gp::sim {

namespace {

size_t
pageBytes()
{
    static const size_t page = size_t(sysconf(_SC_PAGESIZE));
    return page;
}

/// Bytes of a block that holds @p bytes, not counting its guard page.
size_t
blockBytes(size_t bytes)
{
    return (bytes + pageBytes() - 1) & ~(pageBytes() - 1);
}

/** One thread's all-zero blocks, unmapped when the thread ends. */
struct ZeroBlocks
{
    struct Block
    {
        size_t bytes; //!< blockBytes(), guard page excluded
        char *base;
    };
    std::vector<Block> free;

    ~ZeroBlocks();
};

/// Set once this thread's list is destroyed: an array that outlives
/// it (one with static storage, say) unmaps its block instead.
thread_local bool t_blocksGone = false;
thread_local ZeroBlocks t_blocks;

void
unmap(char *base, size_t bytes)
{
    munmap(base, bytes + pageBytes());
}

ZeroBlocks::~ZeroBlocks()
{
    for (const Block &b : free)
        unmap(b.base, b.bytes);
    t_blocksGone = true;
}

} // namespace

void *
takeZeroBlock(size_t bytes)
{
    if (bytes > SIZE_MAX / 2)
        throw std::bad_alloc();
    const size_t len = blockBytes(bytes);
    if (!t_blocksGone) {
        std::vector<ZeroBlocks::Block> &free = t_blocks.free;
        for (size_t i = free.size(); i-- > 0;) {
            if (free[i].bytes != len)
                continue;
            char *base = free[i].base;
            free[i] = free.back();
            free.pop_back();
            return base + (len - bytes);
        }
    }
    void *map = mmap(nullptr, len + pageBytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED)
        throw std::bad_alloc();
    char *base = static_cast<char *>(map);
    if (mprotect(base + len, pageBytes(), PROT_NONE) != 0) {
        unmap(base, len);
        throw std::bad_alloc();
    }
    return base + (len - bytes);
}

void
giveZeroBlock(void *block, size_t bytes)
{
    const size_t len = blockBytes(bytes);
    char *base = static_cast<char *>(block) - (len - bytes);
    if (!t_blocksGone) {
        try {
            t_blocks.free.push_back({len, base});
            return;
        } catch (const std::bad_alloc &) {
            // Called from destructors: give the block back to the
            // system instead.
        }
    }
    unmap(base, len);
}

} // namespace gp::sim
