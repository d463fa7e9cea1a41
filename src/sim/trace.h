/**
 * @file
 * Structured event tracing for the simulator (gem5-DPRINTF-style).
 *
 * Every simulated component emits cycle-stamped TraceEvents through the
 * process-wide TraceManager under one of seven categories. Emission is
 * near-zero-cost when a category is disabled: the GP_TRACE macro is a
 * single branch on a cached bitmask and does NOT evaluate its format
 * arguments when the category is off.
 *
 * Three sinks may be active simultaneously, each with its own category
 * mask:
 *
 *  - a human-readable text stream (gpsim --trace=cat,cat);
 *  - a Chrome trace-event JSON file loadable in Perfetto or
 *    chrome://tracing, with one track per cluster/thread and per cache
 *    bank (gpsim --trace-out=FILE);
 *  - a fixed-size ring buffer ("flight recorder") holding the last N
 *    events, dumped automatically when a thread terminates on an
 *    unhandled fault (gpsim --flight-recorder=N) — the
 *    capability-violation debugging story the fault taxonomy deserves.
 */

#ifndef GP_SIM_TRACE_H
#define GP_SIM_TRACE_H

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace gp::sim {

/** Trace categories, one bit each (combine with |). */
enum class TraceCat : uint32_t
{
    Exec = 1u << 0,  //!< instruction issue/retire
    Mem = 1u << 1,   //!< loads/stores through the memory system
    Cache = 1u << 2, //!< bank hits/misses/conflicts/writebacks
    TLB = 1u << 3,   //!< miss-path translations and page walks
    Fault = 1u << 4, //!< protection faults with pointer bounds
    Gate = 1u << 5,  //!< enter-pointer gate crossings
    NoC = 1u << 6,   //!< mesh messages
};

inline constexpr unsigned kTraceCatCount = 7;
inline constexpr uint32_t kTraceAllMask = (1u << kTraceCatCount) - 1;

/** @return stable lower-case category name ("exec", "cache", ...). */
std::string_view traceCatName(TraceCat cat);

/**
 * Parse a category list: "all" or a comma-separated subset of the
 * category names (case-insensitive). @return the mask, or nullopt on
 * an unknown name.
 */
std::optional<uint32_t> parseTraceMask(std::string_view spec);

/** One cycle-stamped trace record. */
struct TraceEvent
{
    uint64_t cycle = 0;
    TraceCat cat = TraceCat::Exec;
    uint32_t track = 0;  //!< thread id / cache bank / mesh node
    std::string name;    //!< short event name ("ld", "miss", "fault")
    std::string detail;  //!< formatted human-readable payload
};

/** The process-wide trace hub. */
class TraceManager
{
  public:
    static TraceManager &instance();

    /** Single-branch hot-path check on the cached bitmask. */
    static bool
    enabled(TraceCat cat)
    {
        return (mask_ & static_cast<uint32_t>(cat)) != 0;
    }

    /** @return true if any sink wants any category. */
    static bool anyEnabled() { return mask_ != 0; }

    /**
     * The current simulated cycle, maintained by the machine so layers
     * without direct cycle access (e.g. gp pointer ops) can stamp
     * events. Only updated while tracing is enabled.
     */
    void setCycle(uint64_t cycle) { cycle_ = cycle; }
    uint64_t cycle() const { return cycle_; }

    /** Attach (or detach, with nullptr) the text sink. */
    void setTextSink(std::ostream *os, uint32_t mask = kTraceAllMask);

    /**
     * Open a Chrome trace-event JSON sink. The file is streamed; call
     * closeJson() (or destroy the manager) to finalize it.
     * @return false if the file could not be opened.
     */
    bool openJson(const std::string &path,
                  uint32_t mask = kTraceAllMask);

    /** Finalize and close the Chrome JSON sink, if open. */
    void closeJson();

    /**
     * Give a (category, track) pair a descriptive Perfetto thread
     * name — e.g. the protection domain a thread slot runs — instead
     * of the default "thread 3"/"bank 1". Call any time before the
     * track's first event; names are emitted as thread_name metadata
     * events and JSON-escaped, so arbitrary strings are safe.
     */
    void setTrackName(TraceCat cat, uint32_t track, std::string name);

    /**
     * Arm the flight recorder: keep the last `depth` events matching
     * `mask`, and dump them to `dump_to` (default stderr) when
     * unhandledFault() fires. depth 0 disarms.
     */
    void setFlightRecorder(size_t depth,
                           uint32_t mask = kTraceAllMask,
                           std::ostream *dump_to = nullptr);

    /** Emit one event (fully formed). */
    void emit(TraceEvent ev);

    /** printf-style emission; the macro front end guards the cost. */
    void emitf(TraceCat cat, uint64_t cycle, uint32_t track,
               const char *name, const char *fmt, ...)
        __attribute__((format(printf, 6, 7)));

    /**
     * A thread terminated on an unhandled fault: dump the flight
     * recorder (if armed) to its configured stream.
     */
    void unhandledFault();

    /** Flight-recorder contents, oldest first (tests/tools). */
    std::vector<TraceEvent> ringEvents() const;

    /** Write the flight recorder as text, oldest first. */
    void dumpRing(std::ostream &os) const;

    /** Total events accepted by any sink since construction/reset. */
    uint64_t emittedCount() const { return emitted_; }

    /** Tear down all sinks and masks (tests, and between gpsim runs). */
    void reset();

    ~TraceManager();

  private:
    TraceManager() = default;
    TraceManager(const TraceManager &) = delete;
    TraceManager &operator=(const TraceManager &) = delete;

    void recomputeMask();
    void writeText(std::ostream &os, const TraceEvent &ev) const;
    void writeJson(const TraceEvent &ev);

    /// Union of the three sink masks; static so enabled() is one load.
    inline static uint32_t mask_ = 0;

    uint64_t cycle_ = 0;
    uint64_t emitted_ = 0;

    std::ostream *textOut_ = nullptr;
    uint32_t textMask_ = 0;

    std::ofstream jsonFile_;
    uint32_t jsonMask_ = 0;
    bool jsonFirst_ = true;
    /// (cat,track) pairs already given Chrome metadata name events
    std::map<std::pair<uint32_t, uint32_t>, bool> jsonTracksSeen_;
    /// Custom Perfetto thread names, keyed like jsonTracksSeen_
    std::map<std::pair<uint32_t, uint32_t>, std::string> trackNames_;

    std::vector<TraceEvent> ring_;
    size_t ringDepth_ = 0;
    size_t ringHead_ = 0;
    uint32_t ringMask_ = 0;
    std::ostream *ringDumpTo_ = nullptr;
};

} // namespace gp::sim

/**
 * Emit a trace event iff the category is enabled. Arguments after
 * `track` are NOT evaluated when the category is off — keep side
 * effects out of them.
 *
 * Usage: GP_TRACE(Cache, now, bank, "miss", "vaddr=0x%llx", va);
 */
#define GP_TRACE(cat, cycle, track, name, ...)                         \
    do {                                                               \
        if (::gp::sim::TraceManager::enabled(                          \
                ::gp::sim::TraceCat::cat)) {                           \
            ::gp::sim::TraceManager::instance().emitf(                 \
                ::gp::sim::TraceCat::cat, (cycle), (track), (name),    \
                __VA_ARGS__);                                          \
        }                                                              \
    } while (0)

#endif // GP_SIM_TRACE_H
