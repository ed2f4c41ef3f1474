/**
 * @file
 * Statistics primitives: event counters and bounded cycle histograms.
 *
 * The paper reports per-operation cycle counts (Tables II and III):
 * integer cycle samples whose exact count, sum, min, max and mean
 * HistogramStat keeps in fixed memory. Both primitives are the cells
 * of the tap-keyed MetricsDomain (sim/probe); request-latency
 * quantiles live in LatencyHistogram (sim/latency).
 */

#ifndef VIRTSIM_SIM_STATS_HH
#define VIRTSIM_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

namespace virtsim {

/**
 * A monotonically increasing event counter.
 *
 * Increments are relaxed atomics so counters shared across sharded
 * kernel lanes (e.g. a Machine's metrics domain fed from several CPU
 * shards) stay exact without locking; addition commutes, so the final
 * value is independent of thread interleaving and runs remain
 * byte-identical at every VIRTSIM_SHARDS setting. Copy semantics are
 * value snapshots (needed so MetricsDomain's tap-indexed counter
 * vector can grow).
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &o)
        : _value(o._value.load(std::memory_order_relaxed))
    {}
    Counter &
    operator=(const Counter &o)
    {
        _value.store(o._value.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        return *this;
    }

    void
    inc(std::uint64_t by = 1)
    {
        _value.fetch_add(by, std::memory_order_relaxed);
    }
    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }
    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * Bounded-memory cycle histogram: 64 log2 buckets plus exact min, max,
 * count and sum. It never grows with the number of samples, so it is
 * safe to leave attached to per-trap-reason metrics over arbitrarily
 * long sweeps.
 */
class HistogramStat
{
  public:
    static constexpr std::size_t numBuckets = 64;

    void
    add(std::uint64_t sample)
    {
        ++buckets[bucketOf(sample)];
        ++_count;
        _sum += sample;
        _min = std::min(_min, sample);
        _max = std::max(_max, sample);
    }

    std::uint64_t count() const { return _count; }
    bool empty() const { return _count == 0; }

    /** Smallest sample (exact). @pre !empty() */
    std::uint64_t min() const { return _min; }

    /** Largest sample (exact). @pre !empty() */
    std::uint64_t max() const { return _max; }

    /** Sum of all samples (exact). */
    std::uint64_t sum() const { return _sum; }

    /** Arithmetic mean (exact). Returns 0 when empty. */
    double
    mean() const
    {
        return _count == 0
                   ? 0.0
                   : static_cast<double>(_sum) /
                         static_cast<double>(_count);
    }

    /** Samples in bucket i, which covers [2^(i-1), 2^i - 1] (bucket 0
     *  holds exactly the value 0). */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets[i];
    }

    /** Bucket index a sample lands in: bit width of the value. */
    static constexpr std::size_t
    bucketOf(std::uint64_t sample)
    {
        return static_cast<std::size_t>(std::bit_width(sample));
    }

    /** Fold another histogram in. Exact and order-independent —
     *  bucket-wise sums plus exact count/sum/min/max — so per-lane
     *  profiler shards merge into the same view the serial run
     *  records directly. */
    void
    merge(const HistogramStat &o)
    {
        for (std::size_t i = 0; i < buckets.size(); ++i)
            buckets[i] += o.buckets[i];
        _count += o._count;
        _sum += o._sum;
        _min = std::min(_min, o._min);
        _max = std::max(_max, o._max);
    }

    void reset();

    /** One-line summary: n/min/mean/max. */
    std::string render() const;

  private:
    std::array<std::uint64_t, numBuckets + 1> buckets{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = UINT64_MAX;
    std::uint64_t _max = 0;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_STATS_HH
