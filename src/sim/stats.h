/**
 * @file
 * Lightweight statistics package for the simulator.
 *
 * Components own named Counter / Histogram objects grouped in a
 * StatGroup; groups can be dumped in a uniform text format by tests,
 * examples, and the bench harness. This mirrors (in miniature) the role
 * of the gem5 stats package: every architectural event of interest is
 * counted, and experiments read results from stats rather than ad-hoc
 * printfs.
 */

#ifndef GP_SIM_STATS_H
#define GP_SIM_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gp::sim {

/** A monotonically increasing (or explicitly settable) event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(uint64_t n) { value_ += n; }

    void set(uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }

    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/**
 * A fixed-bucket histogram over a [0, max) range with uniform buckets,
 * plus an overflow bucket. Tracks count/sum/min/max for summary stats.
 */
class Histogram
{
  public:
    /**
     * @param bucket_count number of uniform buckets.
     * @param max upper bound of the bucketed range; samples >= max land
     *            in the overflow bucket. max / bucket_count, the
     *            bucket width, must be a power of two (fatal
     *            otherwise), so sample() finds the bucket by a shift.
     */
    Histogram(size_t bucket_count = 16, uint64_t max = 16);

    /** Record one sample. Inline: histogram sampling sits on
     * per-event hot paths (bank-conflict waits, miss latencies), so
     * it must not cost a function call per event. */
    void
    sample(uint64_t value)
    {
        const size_t idx =
            value >= range_
                ? buckets_.size() - 1 // overflow bucket
                : static_cast<size_t>(value >> widthLog2_);
        buckets_[idx]++;
        count_++;
        sum_ += value;
        min_ = value < min_ ? value : min_;
        max_ = value > max_ ? value : max_;
    }

    /** Discard all samples. */
    void reset();

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    /** Smallest recorded sample; 0 when no samples were recorded. */
    uint64_t minValue() const { return count_ == 0 ? 0 : min_; }
    uint64_t maxValue() const { return max_; }
    double mean() const;

    /**
     * Approximate p-th percentile (p in [0, 100]) from the bucket
     * boundaries: returns the inclusive upper edge of the bucket
     * containing the p-th sample, clamped to [min, max]; samples in
     * the overflow bucket resolve to maxValue(). 0 when empty.
     */
    uint64_t percentile(double p) const;

    /** Tail-latency accessors (ROADMAP item 4 groundwork). */
    uint64_t p99() const { return percentile(99.0); }
    uint64_t p999() const { return percentile(99.9); }

    /** @return number of samples in bucket i (the last is overflow). */
    uint64_t bucket(size_t i) const { return buckets_.at(i); }
    size_t bucketCount() const { return buckets_.size(); }

    /** Inclusive lower bound of bucket i (the last is overflow). */
    uint64_t bucketLow(size_t i) const;

    /** Exclusive upper bound of bucket i (UINT64_MAX for overflow). */
    uint64_t bucketHigh(size_t i) const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t range_;
    unsigned widthLog2_ = 0; //!< log2 of the bucket width
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

/**
 * A named collection of counters and histograms owned by one simulated
 * component. Registration hands out references that stay valid for the
 * life of the group.
 *
 * Every StatGroup automatically registers itself with the process-wide
 * StatRegistry (sim/stats_registry.h) for its lifetime, so drivers can
 * dump/export every live stat without hand-enumerating components.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Create (or fetch) the counter with the given name. */
    Counter &counter(const std::string &name);

    /** Create (or fetch) the histogram with the given name. */
    Histogram &histogram(const std::string &name, size_t buckets = 16,
                         uint64_t max = 16);

    /**
     * @return the counter's current value, or 0 if never created.
     * Counter names only: asking for a name registered as a histogram
     * is a programming error and panics — use histogram(name) and its
     * count()/mean()/percentile() accessors instead.
     */
    uint64_t get(const std::string &name) const;

    /** Reset every counter and histogram in the group. */
    void resetAll();

    /**
     * Write all stats as "group.name value" lines. Histograms emit
     * .count/.mean/.min/.max/.p50/.p99 summary lines.
     */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** All counters, for the registry/export layers. */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    /** All histograms, for the registry/export layers. */
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace gp::sim

#endif // GP_SIM_STATS_H
