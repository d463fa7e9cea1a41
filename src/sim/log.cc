#include "sim/log.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gp::sim {

namespace {

std::atomic<bool> quietFlag{false};

void
vreport(const char *tag, const char *fmt, va_list args)
{
    // The whole line goes out in one write, so lines reported from
    // several host threads (shard workers) never interleave.
    va_list sizing;
    va_copy(sizing, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    std::string line = std::string(tag) + ": ";
    const size_t head = line.size();
    line.resize(head + size_t(std::max(len, 0)) + 1);
    std::vsnprintf(line.data() + head, line.size() - head, fmt, args);
    line.back() = '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

} // namespace gp::sim
