/**
 * @file
 * Request-latency observability: a bounded-memory HDR-style histogram
 * and a lane-partitioned per-request phase tracker.
 *
 * ROADMAP item 1 asks for p99/p999 tail percentiles and SLO violation
 * rates, not just the paper's means. Keeping every sample would give
 * exact percentiles but grows without bound at fleet scale, and
 * HistogramStat's 64 log2 buckets cannot separate a 30 us p50 from a
 * 35 us p99 — both land in one power-of-two bucket.
 * LatencyHistogram fills the gap: log-linear buckets (HdrHistogram's
 * scheme) give a fixed <=0.79% relative error at every magnitude in a
 * fixed 58 KB footprint, and merging is bucket-wise integer addition —
 * exact and order-independent, so per-lane shards fold into the same
 * view a serial run records directly (the PR 7 determinism bar).
 *
 * RequestTracker layers the fleet/request model on top: per-CPU
 * histograms for each latency phase of a request/response transaction
 * (RTT plus its decomposition into client think, wire flight, server
 * queue wait, and service), partitioned per execution lane exactly
 * like TraceSink ring segments and the EventKernelProfiler arrays —
 * record() writes only the calling lane's own pre-sized storage, so
 * the hot stamp path performs no allocation and no cross-lane
 * synchronization, and the disabled path is one predicted branch.
 */

#ifndef VIRTSIM_SIM_LATENCY_HH
#define VIRTSIM_SIM_LATENCY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/lane.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * Fixed-capacity log-linear histogram of unsigned cycle values.
 *
 * Bucket scheme (subBucketBits = m = 7): values below 2^(m+1) = 256
 * are recorded exactly, one bucket per value. Above that, each
 * power-of-two octave [2^k, 2^(k+1)) splits into 2^m equal sub-
 * buckets, so a bucket spanning [low, low + 2^s) has relative width
 * (2^s - 1)/low < 2^-m ~= 0.79% — the quantile error bound at every
 * magnitude, covering the full uint64 range in 7424 buckets.
 * Exact count, sum, min and max are tracked alongside, so means are
 * exact and quantiles clamp into the observed range.
 *
 * merge() is bucket-wise integer addition plus exact count/sum/
 * min/max folds: exact, commutative and associative, which is what
 * makes per-lane shards deterministic to merge in any order.
 */
class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2^-subBucketBits relative error. */
    static constexpr unsigned subBucketBits = 7;
    static constexpr std::uint64_t subBuckets = std::uint64_t{1}
                                                << subBucketBits;
    /** Largest value recorded exactly (one bucket per value). */
    static constexpr std::uint64_t exactLimit = 2 * subBuckets;
    /** Octaves above the exact region: bit widths m+2 .. 64. */
    static constexpr std::size_t numBuckets = static_cast<std::size_t>(
        (64 - subBucketBits + 1) * subBuckets);

    /** Bucket index a value lands in. */
    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < exactLimit)
            return static_cast<std::size_t>(v);
        const unsigned s = static_cast<unsigned>(std::bit_width(v)) -
                           (subBucketBits + 1);
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(s + 1) << subBucketBits) +
            ((v >> s) - subBuckets));
    }

    /** Smallest value mapping to bucket i. */
    static constexpr std::uint64_t
    bucketLow(std::size_t i)
    {
        if (i < exactLimit)
            return static_cast<std::uint64_t>(i);
        const unsigned s =
            static_cast<unsigned>(i >> subBucketBits) - 1;
        const std::uint64_t sub = i & (subBuckets - 1);
        return (subBuckets + sub) << s;
    }

    /** Largest value mapping to bucket i. */
    static constexpr std::uint64_t
    bucketHigh(std::size_t i)
    {
        if (i < exactLimit)
            return static_cast<std::uint64_t>(i);
        const unsigned s =
            static_cast<unsigned>(i >> subBucketBits) - 1;
        const std::uint64_t sub = i & (subBuckets - 1);
        // The next bucket's low minus one; the top bucket saturates.
        const std::uint64_t next = subBuckets + sub + 1;
        if (s >= 56 && sub == subBuckets - 1)
            return UINT64_MAX;
        return (next << s) - 1;
    }

    void
    add(std::uint64_t v)
    {
        ++buckets[bucketOf(v)];
        ++_count;
        _sum += v;
        _min = v < _min ? v : _min;
        _max = v > _max ? v : _max;
    }

    std::uint64_t count() const { return _count; }
    bool empty() const { return _count == 0; }

    /** Smallest recorded value (exact). @pre !empty() */
    std::uint64_t min() const { return _min; }
    /** Largest recorded value (exact). @pre !empty() */
    std::uint64_t max() const { return _max; }
    /** Sum of all recorded values (exact). */
    std::uint64_t sum() const { return _sum; }

    /** Arithmetic mean (exact). Returns 0 when empty. */
    double
    mean() const
    {
        return _count == 0 ? 0.0
                           : static_cast<double>(_sum) /
                                 static_cast<double>(_count);
    }

    /**
     * Value at quantile q in [0, 1] with nearest-rank semantics at
     * bucket resolution: the highest value equivalent to the sample
     * of rank ceil(q * count), clamped into [min(), max()] so exact
     * extrema are returned exactly. Returns 0 when empty.
     */
    std::uint64_t quantile(double q) const;

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p90() const { return quantile(0.90); }
    std::uint64_t p99() const { return quantile(0.99); }
    std::uint64_t p999() const { return quantile(0.999); }

    /**
     * Samples strictly above `threshold`, at bucket resolution: the
     * mass of every bucket whose low bound exceeds `threshold` (the
     * bucket containing the threshold counts as within). Exact for
     * thresholds below exactLimit or on a bucket boundary; what SLO
     * violation fractions are computed from, and reproducible from
     * the exported bucket array (scripts/validate_latency.py does).
     */
    std::uint64_t countAbove(std::uint64_t threshold) const;

    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets[i];
    }

    /** Fold another histogram in: exact and order-independent. */
    void
    merge(const LatencyHistogram &o)
    {
        for (std::size_t i = 0; i < numBuckets; ++i)
            buckets[i] += o.buckets[i];
        _count += o._count;
        _sum += o._sum;
        _min = o._min < _min ? o._min : _min;
        _max = o._max > _max ? o._max : _max;
    }

    void reset();

    /** One-line summary: n/min/p50/p99/max (cycle values). */
    std::string render() const;

  private:
    std::array<std::uint64_t, numBuckets> buckets{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = UINT64_MAX;
    std::uint64_t _max = 0;
};

/**
 * The phases a request/response transaction decomposes into. The
 * fleet records the exact modelled identity
 *   rtt = wire_flight(req) + server_queue + service + wire_flight(rsp)
 * per transaction; client think sits between transactions and is
 * deliberately outside the RTT.
 */
enum class LatencyPhase : std::uint8_t {
    Rtt = 0,     ///< request departure -> response arrival
    ClientThink, ///< response arrival -> next request departure
    WireFlight,  ///< one wire traversal (either direction)
    ServerQueue, ///< arrival at the server -> service start
    Service,     ///< service start -> service completion
};

inline constexpr std::size_t numLatencyPhases = 5;

/** Stable lower-case phase name ("rtt", "server_queue", ...). */
const char *to_string(LatencyPhase phase);

/**
 * Per-CPU, per-phase latency recording with lane-partitioned storage.
 *
 * Life cycle mirrors the other lane-native sinks: configure(nCpus)
 * sizes the serial (single-segment) storage, prepareForParallel(lanes)
 * re-partitions it so each kernel lane owns a private histogram array,
 * enable() arms recording. record() then indexes the calling thread's
 * lane segment (clamping the setup/export context, lane -1, to
 * segment 0 — also the only segment a single-lane kernel uses) and
 * does two dozen integer operations on pre-sized arrays: no locks, no
 * allocation. While disabled, record() is one predicted branch.
 *
 * The read side (merged()/aggregate()/quantile helpers) folds lane
 * segments with LatencyHistogram::merge — exact and order-independent
 * — so every derived number is byte-identical at any lane count.
 * Reads must not race recording: call them from the setup/export
 * context or a barrier (timeline sample hooks run at barrier rounds
 * with all lanes quiescent).
 */
class RequestTracker
{
  public:
    /** Size storage for `nCpus` server CPUs, one (serial) segment.
     *  Drops previously recorded data. */
    void configure(int nCpus);

    /** Re-partition into `lanes` private segments. @pre configured.
     *  Call from the setup thread before lanes run. */
    void prepareForParallel(int lanes);

    /** Arm recording. @pre configured. */
    void
    enable()
    {
        VIRTSIM_ASSERT(_cpus > 0,
                       "RequestTracker::enable() before configure()");
        _enabled = true;
    }
    void disable() { _enabled = false; }
    bool enabled() const { return _enabled; }

    int cpus() const { return _cpus; }

    /** Fresh request id. Client-side only: call from one lane (the
     *  fleet's lane 0) or the setup thread. */
    std::uint64_t nextRequestId() { return ++lastId; }
    std::uint64_t requestsIssued() const { return lastId; }

    /** Record one phase latency for a request served by `cpu`. The
     *  hot path: one predicted branch when disabled, zero-alloc
     *  lane-local bucket increments when enabled. */
    void
    record(int cpu, LatencyPhase phase, Cycles value)
    {
        if (!_enabled) [[likely]]
            return;
        recordEnabled(cpu, phase, value);
    }

    /** Lane-merged histogram for one (cpu, phase) slot. */
    LatencyHistogram merged(int cpu, LatencyPhase phase) const;

    /** Lane-merged histogram for a phase across every CPU. */
    LatencyHistogram aggregate(LatencyPhase phase) const;

    /** Streaming aggregate count for a phase (no 58 KB copies) —
     *  cpu = -1 folds every CPU. */
    std::uint64_t totalCount(LatencyPhase phase, int cpu = -1) const;

    /** Streaming aggregate sum of recorded values (cycles) — the
     *  flight recorder's per-window mean comes from delta(sum)/
     *  delta(count) between two barrier instants. */
    std::uint64_t totalSum(LatencyPhase phase, int cpu = -1) const;

    /** Streaming aggregate of LatencyHistogram::countAbove. */
    std::uint64_t totalAbove(LatencyPhase phase,
                             std::uint64_t threshold,
                             int cpu = -1) const;

    /**
     * Streaming aggregate quantile: walks the bucket axis summing
     * lane segments on the fly, so the per-sample cost is bucket
     * visits rather than histogram copies. Used by the SLO engine's
     * per-tick rolling quantile gauge. Same result as
     * aggregate(phase).quantile(q), byte for byte.
     */
    std::uint64_t quantileAcross(LatencyPhase phase, double q,
                                 int cpu = -1) const;

    /** Zero recorded data; keep configuration, partitioning and the
     *  enabled flag (the Probe::reset() contract, like
     *  TimelineSampler::resetSeries). */
    void reset();

  private:
    void recordEnabled(int cpu, LatencyPhase phase, Cycles value);

    std::size_t
    slotOf(int cpu, LatencyPhase phase) const
    {
        return static_cast<std::size_t>(cpu) * numLatencyPhases +
               static_cast<std::size_t>(phase);
    }

    /** Lane segment the calling thread records into. */
    std::vector<LatencyHistogram> &
    laneSeg()
    {
        const int l = currentExecLane();
        const std::size_t li =
            (l < 1 || static_cast<std::size_t>(l) >= segs.size())
                ? 0
                : static_cast<std::size_t>(l);
        return segs[li];
    }

    int _cpus = 0;
    bool _enabled = false;
    std::uint64_t lastId = 0;
    /** [lane][cpu * numLatencyPhases + phase]; one entry in serial
     *  mode, resized only by configure()/prepareForParallel(). */
    std::vector<std::vector<LatencyHistogram>> segs;
};

class Frequency;

/**
 * Standalone JSON export (schema "virtsim-latency-1"): per-CPU and
 * aggregate histograms for every phase — quantiles in exact cycles
 * and in microseconds, plus the sparse nonzero-bucket array so
 * external tooling can recompute quantiles and violation counts and
 * cross-check the exported values (scripts/validate_latency.py).
 * `sloJson` is a pre-rendered JSON array of SLO verdicts (sim/slo) or
 * empty for "[]"; latency stays below slo in the include graph.
 * Deterministic: derived from lane-merged exact integers only.
 */
std::string renderLatencyJson(const RequestTracker &tracker,
                              const Frequency &freq,
                              const std::string &world,
                              const std::string &sloJson);

} // namespace virtsim

#endif // VIRTSIM_SIM_LATENCY_HH
