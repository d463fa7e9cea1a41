#include "sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/log.h"
#include "sim/stats_registry.h"

namespace gp::sim {

Histogram::Histogram(size_t bucket_count, uint64_t max)
    : buckets_(bucket_count + 1, 0),
      range_(max)
{
    const uint64_t width = bucket_count ? max / bucket_count : 0;
    if (width * bucket_count != max || !std::has_single_bit(width))
        fatal("histogram: %llu buckets over [0, %llu) are not of one "
              "power-of-two width",
              static_cast<unsigned long long>(bucket_count),
              static_cast<unsigned long long>(max));
    widthLog2_ = unsigned(std::countr_zero(width));
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = UINT64_MAX;
    max_ = 0;
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
}

uint64_t
Histogram::bucketLow(size_t i) const
{
    const size_t n = buckets_.size() - 1;
    if (i >= n)
        return range_; // overflow bucket starts at the range bound
    return (i * range_) / n;
}

uint64_t
Histogram::bucketHigh(size_t i) const
{
    const size_t n = buckets_.size() - 1;
    if (i >= n)
        return UINT64_MAX; // overflow bucket is unbounded
    return ((i + 1) * range_) / n;
}

uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    if (p <= 0.0)
        return minValue();
    if (p >= 100.0)
        return max_;

    uint64_t target = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    target = std::max<uint64_t>(target, 1);

    const size_t n = buckets_.size() - 1;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum >= target) {
            if (i == n)
                return max_; // overflow bucket: best bound is max
            // Rank-interpolate within the bucket: the target sample
            // is the (target - below)-th of buckets_[i] samples
            // assumed uniform over [low, high). Returning the upper
            // edge regardless of rank (the old behaviour) inflated
            // every percentile that landed early in a bucket — p50
            // of two equal samples came back at the bucket top.
            const uint64_t below = cum - buckets_[i];
            const double frac = static_cast<double>(target - 1 - below) /
                                static_cast<double>(buckets_[i]);
            const uint64_t low = bucketLow(i);
            const uint64_t high = bucketHigh(i);
            const uint64_t approx =
                low + static_cast<uint64_t>(
                          frac * static_cast<double>(high - low));
            // Clamp to the observed sample range so degenerate
            // distributions (all samples equal) report exactly.
            return std::clamp(approx, minValue(), max_);
        }
    }
    return max_;
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
    StatRegistry::instance().add(this);
}

StatGroup::~StatGroup()
{
    StatRegistry::instance().remove(this);
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Histogram &
StatGroup::histogram(const std::string &name, size_t buckets, uint64_t max)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, Histogram(buckets, max)).first;
    }
    return it->second;
}

uint64_t
StatGroup::get(const std::string &name) const
{
    auto it = counters_.find(name);
    if (it != counters_.end())
        return it->second.value();
    if (histograms_.count(name)) {
        panic("StatGroup::get(\"%s.%s\") names a histogram; use "
              "histogram(name).count()/mean()/percentile() instead",
              name_.c_str(), name.c_str());
    }
    return 0;
}

void
StatGroup::resetAll()
{
    for (auto &[name, ctr] : counters_)
        ctr.reset();
    for (auto &[name, hist] : histograms_)
        hist.reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, ctr] : counters_) {
        os << name_ << "." << name << " " << ctr.value() << "\n";
    }
    for (const auto &[name, hist] : histograms_) {
        os << name_ << "." << name << ".count " << hist.count() << "\n";
        os << name_ << "." << name << ".mean " << hist.mean() << "\n";
        os << name_ << "." << name << ".min " << hist.minValue()
           << "\n";
        os << name_ << "." << name << ".max " << hist.maxValue()
           << "\n";
        os << name_ << "." << name << ".p50 " << hist.percentile(50.0)
           << "\n";
        os << name_ << "." << name << ".p99 " << hist.p99() << "\n";
        os << name_ << "." << name << ".p999 " << hist.p999() << "\n";
    }
}

} // namespace gp::sim
