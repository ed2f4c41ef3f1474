#include "sim/stats.hh"

#include <cmath>
#include <sstream>

#include "sim/log.hh"

namespace virtsim {

void
SampleStat::add(double sample)
{
    VIRTSIM_ASSERT(samples.size() < maxSamples,
                   "SampleStat exceeded ", maxSamples,
                   " samples; this stream needs a bounded-memory "
                   "LatencyHistogram (sim/latency) instead");
    samples.push_back(sample);
    _sum += sample;
    sortedValid = false;
}

double
SampleStat::mean() const
{
    VIRTSIM_ASSERT(!empty(), "mean of empty stat");
    return _sum / static_cast<double>(samples.size());
}

double
SampleStat::min() const
{
    VIRTSIM_ASSERT(!empty(), "min of empty stat");
    ensureSorted();
    return sorted.front();
}

double
SampleStat::max() const
{
    VIRTSIM_ASSERT(!empty(), "max of empty stat");
    ensureSorted();
    return sorted.back();
}

double
SampleStat::stddev() const
{
    VIRTSIM_ASSERT(!empty(), "stddev of empty stat");
    const double m = mean();
    double acc = 0.0;
    for (double s : samples) {
        const double d = s - m;
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(samples.size()));
}

double
SampleStat::percentile(double p) const
{
    VIRTSIM_ASSERT(!empty(), "percentile of empty stat");
    VIRTSIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    ensureSorted();
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void
SampleStat::reset()
{
    samples.clear();
    sorted.clear();
    sortedValid = false;
    _sum = 0.0;
}

void
SampleStat::ensureSorted() const
{
    if (sortedValid)
        return;
    sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    sortedValid = true;
}

void
HistogramStat::reset()
{
    buckets.fill(0);
    _count = 0;
    _sum = 0;
    _min = UINT64_MAX;
    _max = 0;
}

std::string
HistogramStat::render() const
{
    std::ostringstream oss;
    oss << "n=" << _count;
    if (_count > 0) {
        oss << " min=" << _min << " mean=" << mean()
            << " max=" << _max;
    }
    return oss.str();
}

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    std::shared_lock lock(mtx);
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

void
StatRegistry::reset()
{
    std::unique_lock lock(mtx);
    for (auto &kv : counters)
        kv.second.reset();
    for (auto &kv : stats)
        kv.second.reset();
}

std::string
StatRegistry::render() const
{
    std::ostringstream oss;
    for (const auto &kv : counters)
        oss << kv.first << " = " << kv.second.value() << "\n";
    for (const auto &kv : stats) {
        oss << kv.first << ": n=" << kv.second.count();
        if (!kv.second.empty()) {
            oss << " mean=" << kv.second.mean()
                << " min=" << kv.second.min()
                << " max=" << kv.second.max();
        }
        oss << "\n";
    }
    return oss.str();
}

} // namespace virtsim
