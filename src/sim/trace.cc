#include "sim/trace.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <iostream>

#include "sim/json.h"

namespace gp::sim {

namespace {

struct CatInfo
{
    TraceCat cat;
    std::string_view name;
    std::string_view trackKind; //!< what a track id means in this cat
};

constexpr CatInfo kCats[kTraceCatCount] = {
    {TraceCat::Exec, "exec", "thread"},
    {TraceCat::Mem, "mem", "bank"},
    {TraceCat::Cache, "cache", "bank"},
    {TraceCat::TLB, "tlb", "bank"},
    {TraceCat::Fault, "fault", "thread"},
    {TraceCat::Gate, "gate", "thread"},
    {TraceCat::NoC, "noc", "node"},
};

const CatInfo &
infoOf(TraceCat cat)
{
    for (const CatInfo &info : kCats) {
        if (info.cat == cat)
            return info;
    }
    return kCats[0]; // unreachable for valid single-bit categories
}

/** 1-based Chrome "pid" for a category (pid 0 renders oddly). */
unsigned
pidOf(TraceCat cat)
{
    unsigned bit = 0;
    uint32_t v = static_cast<uint32_t>(cat);
    while (v > 1) {
        v >>= 1;
        bit++;
    }
    return bit + 1;
}

std::string
lower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

std::string_view
traceCatName(TraceCat cat)
{
    return infoOf(cat).name;
}

std::optional<uint32_t>
parseTraceMask(std::string_view spec)
{
    if (lower(spec) == "all")
        return kTraceAllMask;

    uint32_t mask = 0;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string_view::npos)
            comma = spec.size();
        const std::string tok =
            lower(spec.substr(start, comma - start));
        if (!tok.empty()) {
            bool found = false;
            for (const CatInfo &info : kCats) {
                if (tok == info.name) {
                    mask |= static_cast<uint32_t>(info.cat);
                    found = true;
                    break;
                }
            }
            if (!found)
                return std::nullopt;
        }
        start = comma + 1;
        if (comma == spec.size())
            break;
    }
    return mask == 0 ? std::nullopt : std::optional<uint32_t>(mask);
}

TraceManager &
TraceManager::instance()
{
    static TraceManager mgr;
    return mgr;
}

TraceManager::~TraceManager()
{
    closeJson();
}

void
TraceManager::recomputeMask()
{
    mask_ = textMask_ | jsonMask_ | ringMask_;
}

void
TraceManager::setTextSink(std::ostream *os, uint32_t mask)
{
    textOut_ = os;
    textMask_ = os ? mask : 0;
    recomputeMask();
}

bool
TraceManager::openJson(const std::string &path, uint32_t mask)
{
    closeJson();
    jsonFile_.open(path, std::ios::trunc);
    if (!jsonFile_)
        return false;
    jsonFile_ << "{\"traceEvents\":[";
    jsonFirst_ = true;
    jsonTracksSeen_.clear();
    jsonMask_ = mask;
    recomputeMask();
    return true;
}

void
TraceManager::closeJson()
{
    if (jsonFile_.is_open()) {
        jsonFile_ << "],\"displayTimeUnit\":\"ns\"}\n";
        jsonFile_.close();
    }
    jsonMask_ = 0;
    recomputeMask();
}

void
TraceManager::setFlightRecorder(size_t depth, uint32_t mask,
                                std::ostream *dump_to)
{
    ring_.clear();
    ringHead_ = 0;
    ringDepth_ = depth;
    ringMask_ = depth > 0 ? mask : 0;
    ringDumpTo_ = dump_to;
    ring_.reserve(depth);
    recomputeMask();
}

void
TraceManager::writeText(std::ostream &os, const TraceEvent &ev) const
{
    const CatInfo &info = infoOf(ev.cat);
    char head[96];
    std::snprintf(head, sizeof(head), "[%8llu] %-5s %s%u: %-10s ",
                  static_cast<unsigned long long>(ev.cycle),
                  std::string(info.name).c_str(),
                  std::string(info.trackKind, 0, 1).c_str(), ev.track,
                  ev.name.c_str());
    os << head << ev.detail << "\n";
}

void
TraceManager::writeJson(const TraceEvent &ev)
{
    const CatInfo &info = infoOf(ev.cat);
    const unsigned pid = pidOf(ev.cat);

    // First event on a (category, track) pair: name the Perfetto
    // process (category) and thread (track) so the UI shows e.g.
    // "cache / bank 2" and "exec / thread 5".
    auto key = std::make_pair(static_cast<uint32_t>(ev.cat), ev.track);
    if (!jsonTracksSeen_.count(key)) {
        jsonTracksSeen_[key] = true;
        if (!jsonFirst_)
            jsonFile_ << ",";
        jsonFirst_ = false;
        // A registered custom name (e.g. the protection domain the
        // thread slot runs) wins over the generic "thread 5"; both
        // go through jsonEscape so quotes/backslashes in names can
        // never break the trace file.
        std::string tname;
        if (auto it = trackNames_.find(key); it != trackNames_.end()) {
            tname = it->second;
        } else {
            tname = std::string(info.trackKind) + " " +
                    std::to_string(ev.track);
        }
        jsonFile_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                  << pid << ",\"tid\":0,\"args\":{\"name\":\""
                  << jsonEscape(info.name) << "\"}},"
                  << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                  << pid << ",\"tid\":" << ev.track
                  << ",\"args\":{\"name\":\"" << jsonEscape(tname)
                  << "\"}}";
    }

    if (!jsonFirst_)
        jsonFile_ << ",";
    jsonFirst_ = false;
    jsonFile_ << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
              << info.name << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
              << ev.cycle << ",\"pid\":" << pid
              << ",\"tid\":" << ev.track << ",\"args\":{\"detail\":\""
              << jsonEscape(ev.detail) << "\"}}";
}

void
TraceManager::emit(TraceEvent ev)
{
    const uint32_t bit = static_cast<uint32_t>(ev.cat);
    emitted_++;

    if ((textMask_ & bit) && textOut_)
        writeText(*textOut_, ev);
    if ((jsonMask_ & bit) && jsonFile_.is_open())
        writeJson(ev);
    if (ringMask_ & bit) {
        if (ring_.size() < ringDepth_) {
            ring_.push_back(std::move(ev));
        } else {
            ring_[ringHead_] = std::move(ev);
            ringHead_ = (ringHead_ + 1) % ringDepth_;
        }
    }
}

void
TraceManager::emitf(TraceCat cat, uint64_t cycle, uint32_t track,
                    const char *name, const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);

    TraceEvent ev;
    ev.cycle = cycle;
    ev.cat = cat;
    ev.track = track;
    ev.name = name;
    ev.detail = buf;
    emit(std::move(ev));
}

std::vector<TraceEvent>
TraceManager::ringEvents() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(ringHead_ + i) % ring_.size()]);
    return out;
}

void
TraceManager::dumpRing(std::ostream &os) const
{
    os << "=== flight recorder: last " << ring_.size()
       << " event(s) ===\n";
    for (const TraceEvent &ev : ringEvents())
        writeText(os, ev);
    os << "=== end flight recorder ===\n";
}

void
TraceManager::unhandledFault()
{
    if (ringDepth_ == 0 || ring_.empty())
        return;
    dumpRing(ringDumpTo_ ? *ringDumpTo_ : std::cerr);
}

void
TraceManager::reset()
{
    closeJson();
    textOut_ = nullptr;
    textMask_ = 0;
    ring_.clear();
    ringDepth_ = 0;
    ringHead_ = 0;
    ringMask_ = 0;
    ringDumpTo_ = nullptr;
    trackNames_.clear();
    cycle_ = 0;
    emitted_ = 0;
    recomputeMask();
}

void
TraceManager::setTrackName(TraceCat cat, uint32_t track,
                           std::string name)
{
    trackNames_[{static_cast<uint32_t>(cat), track}] =
        std::move(name);
}

} // namespace gp::sim
