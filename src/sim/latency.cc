#include "sim/latency.hh"

#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/units.hh"

namespace virtsim {

namespace {

/**
 * Nearest-rank quantile of the bucket-wise sum of every histogram
 * `each` visits: the highest value equivalent to the sample of rank
 * ceil(q * count), clamped into the exact [min, max] of the visited
 * histograms — what quantile() on their merge returns. The group
 * counts locate the group holding the rank; only that group's
 * sub-buckets are summed to find the bucket.
 */
template <class Each>
std::uint64_t
quantileOver(Each &&each, double q)
{
    using H = LatencyHistogram;
    std::uint64_t total = 0, lo = UINT64_MAX, hi = 0;
    std::array<std::uint64_t, H::numGroups> groups{};
    each([&](const H &h) {
        if (h.empty())
            return;
        total += h.count();
        lo = h.min() < lo ? h.min() : lo;
        hi = h.max() > hi ? h.max() : hi;
        for (std::size_t g = 0; g < H::numGroups; ++g)
            groups[g] += h.groupCount(g);
    });
    if (total == 0)
        return 0;
    if (q <= 0.0)
        return lo;
    if (q >= 1.0)
        return hi;
    // Nearest rank: the k-th smallest sample, k = ceil(q * count).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank < 1)
        rank = 1;
    if (rank > total)
        rank = total;
    // rank <= total, so both scans stop inside the arrays.
    std::uint64_t cum = 0;
    std::size_t g = 0;
    while (cum + groups[g] < rank)
        cum += groups[g++];
    const std::size_t first = g << H::subBucketBits;
    std::array<std::uint64_t, H::subBuckets> sub{};
    each([&](const H &h) {
        if (h.empty())
            return;
        for (std::size_t j = 0; j < H::subBuckets; ++j)
            sub[j] += h.bucketCount(first + j);
    });
    std::size_t j = 0;
    while ((cum += sub[j]) < rank)
        ++j;
    // Highest equivalent value, clamped into the exact observed range.
    std::uint64_t v = H::bucketHigh(first + j);
    v = v > hi ? hi : v;
    v = v < lo ? lo : v;
    return v;
}

/** Samples in buckets above bucketOf(threshold), summed over every
 *  histogram `each` visits: the rest of the threshold's group from
 *  sub-buckets, every later group from its group count. */
template <class Each>
std::uint64_t
countAboveOver(Each &&each, std::uint64_t threshold)
{
    using H = LatencyHistogram;
    const std::size_t b = H::bucketOf(threshold);
    const std::size_t g = b >> H::subBucketBits;
    const std::size_t groupEnd = (g + 1) << H::subBucketBits;
    std::uint64_t above = 0;
    each([&](const H &h) {
        if (h.empty() || threshold >= h.max())
            return;
        for (std::size_t i = b + 1; i < groupEnd; ++i)
            above += h.bucketCount(i);
        for (std::size_t k = g + 1; k < H::numGroups; ++k)
            above += h.groupCount(k);
    });
    return above;
}

} // namespace

std::uint64_t
LatencyHistogram::quantile(double q) const
{
    return quantileOver([this](auto &&fn) { fn(*this); }, q);
}

std::uint64_t
LatencyHistogram::countAbove(std::uint64_t threshold) const
{
    return countAboveOver([this](auto &&fn) { fn(*this); }, threshold);
}

void
LatencyHistogram::reset()
{
    buckets.fill(0);
    groups.fill(0);
    _count = 0;
    _sum = 0;
    _min = UINT64_MAX;
    _max = 0;
}

std::string
LatencyHistogram::render() const
{
    std::ostringstream oss;
    if (_count == 0) {
        oss << "n=0";
        return oss.str();
    }
    oss << "n=" << _count << " min=" << _min << " p50=" << p50()
        << " p99=" << p99() << " max=" << _max;
    return oss.str();
}

const char *
to_string(LatencyPhase phase)
{
    switch (phase) {
      case LatencyPhase::Rtt:
        return "rtt";
      case LatencyPhase::ClientThink:
        return "client_think";
      case LatencyPhase::WireFlight:
        return "wire_flight";
      case LatencyPhase::ServerQueue:
        return "server_queue";
      case LatencyPhase::Service:
        return "service";
    }
    return "?";
}

void
RequestTracker::configure(int nCpus)
{
    VIRTSIM_ASSERT(nCpus > 0, "RequestTracker needs >= 1 CPU");
    _cpus = nCpus;
    segs.assign(1, std::vector<LatencyHistogram>(
                       static_cast<std::size_t>(nCpus) *
                       numLatencyPhases));
}

void
RequestTracker::prepareForParallel(int lanes)
{
    VIRTSIM_ASSERT(_cpus > 0,
                   "RequestTracker::prepareForParallel() before "
                   "configure()");
    VIRTSIM_ASSERT(lanes >= 1, "need >= 1 lane");
    segs.assign(static_cast<std::size_t>(lanes),
                std::vector<LatencyHistogram>(
                    static_cast<std::size_t>(_cpus) *
                    numLatencyPhases));
}

void
RequestTracker::recordEnabled(int cpu, LatencyPhase phase,
                              Cycles value)
{
    VIRTSIM_ASSERT(cpu >= 0 && cpu < _cpus,
                   "RequestTracker: cpu ", cpu, " out of range");
    laneSeg()[slotOf(cpu, phase)].add(value);
}

LatencyHistogram
RequestTracker::merged(int cpu, LatencyPhase phase) const
{
    VIRTSIM_ASSERT(cpu >= 0 && cpu < _cpus,
                   "RequestTracker: cpu ", cpu, " out of range");
    LatencyHistogram out;
    for (const auto &seg : segs)
        out.merge(seg[slotOf(cpu, phase)]);
    return out;
}

LatencyHistogram
RequestTracker::aggregate(LatencyPhase phase) const
{
    LatencyHistogram out;
    for (const auto &seg : segs)
        for (int c = 0; c < _cpus; ++c)
            out.merge(seg[slotOf(c, phase)]);
    return out;
}

std::uint64_t
RequestTracker::totalCount(LatencyPhase phase, int cpu) const
{
    std::uint64_t n = 0;
    forSelected(phase, cpu,
                [&](const LatencyHistogram &h) { n += h.count(); });
    return n;
}

std::uint64_t
RequestTracker::totalSum(LatencyPhase phase, int cpu) const
{
    std::uint64_t n = 0;
    forSelected(phase, cpu,
                [&](const LatencyHistogram &h) { n += h.sum(); });
    return n;
}

std::uint64_t
RequestTracker::totalAbove(LatencyPhase phase,
                           std::uint64_t threshold, int cpu) const
{
    return countAboveOver(
        [&](auto &&fn) { forSelected(phase, cpu, fn); }, threshold);
}

std::uint64_t
RequestTracker::quantileAcross(LatencyPhase phase, double q,
                               int cpu) const
{
    return quantileOver([&](auto &&fn) { forSelected(phase, cpu, fn); },
                        q);
}

void
RequestTracker::reset()
{
    for (auto &seg : segs)
        for (auto &h : seg)
            h.reset();
    lastId = 0;
}

namespace {

/** %.4f without locale surprises (matches the timeline exporter). */
std::string
latFormatUs(double us)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", us);
    return std::string(buf);
}

void
writeHistJson(std::ostream &os, const LatencyHistogram &h,
              const Frequency &f)
{
    os << "{\"count\":" << h.count();
    if (!h.empty()) {
        os << ",\"min_cycles\":" << h.min()
           << ",\"max_cycles\":" << h.max()
           << ",\"sum_cycles\":" << h.sum()
           << ",\"mean_us\":"
           << latFormatUs(f.us(h.sum()) /
                          static_cast<double>(h.count()))
           << ",\"p50_cycles\":" << h.p50()
           << ",\"p90_cycles\":" << h.p90()
           << ",\"p99_cycles\":" << h.p99()
           << ",\"p999_cycles\":" << h.p999()
           << ",\"p50_us\":" << latFormatUs(f.us(h.p50()))
           << ",\"p90_us\":" << latFormatUs(f.us(h.p90()))
           << ",\"p99_us\":" << latFormatUs(f.us(h.p99()))
           << ",\"p999_us\":" << latFormatUs(f.us(h.p999()))
           << ",\"max_us\":" << latFormatUs(f.us(h.max()));
    }
    // Sparse nonzero buckets: validators recompute quantiles and
    // violation mass from these and cross-check the fields above.
    os << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < LatencyHistogram::numBuckets; ++i) {
        if (h.bucketCount(i) == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "[" << i << "," << h.bucketCount(i) << "]";
    }
    os << "]}";
}

void
writePhaseSet(std::ostream &os, const RequestTracker &t,
              const Frequency &f, int cpu)
{
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        const LatencyPhase ph = static_cast<LatencyPhase>(p);
        if (p > 0)
            os << ",";
        os << "\"" << to_string(ph) << "\":";
        const LatencyHistogram h =
            cpu < 0 ? t.aggregate(ph) : t.merged(cpu, ph);
        writeHistJson(os, h, f);
    }
}

} // namespace

std::string
renderLatencyJson(const RequestTracker &tracker,
                  const Frequency &freq, const std::string &world,
                  const std::string &sloJson)
{
    std::ostringstream os;
    os << "{\n\"schema\":\"virtsim-latency-1\",\n"
       << "\"world\":\"" << world << "\",\n"
       << "\"frequency_ghz\":" << freq.ghz() << ",\n"
       << "\"sub_bucket_bits\":" << LatencyHistogram::subBucketBits
       << ",\n"
       << "\"requests\":"
       << tracker.totalCount(LatencyPhase::Rtt) << ",\n"
       << "\"phases\":[";
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        if (p > 0)
            os << ",";
        os << "\"" << to_string(static_cast<LatencyPhase>(p)) << "\"";
    }
    os << "],\n\"aggregate\":{";
    writePhaseSet(os, tracker, freq, -1);
    os << "},\n\"per_cpu\":[";
    for (int c = 0; c < tracker.cpus(); ++c) {
        if (c > 0)
            os << ",";
        os << "\n{\"cpu\":" << c << ",";
        writePhaseSet(os, tracker, freq, c);
        os << "}";
    }
    os << "\n],\n\"slo\":"
       << (sloJson.empty() ? std::string("[]") : sloJson) << "\n}";
    return os.str();
}

} // namespace virtsim
