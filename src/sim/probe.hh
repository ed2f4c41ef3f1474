/**
 * @file
 * Structured observability: interned trace taps, a fixed-capacity
 * ring-buffer trace sink with span events, a hierarchical metrics
 * registry, and an event-kernel dispatch profiler.
 *
 * This subsystem replaces the old string-keyed Tracer and is the
 * simulator's substitute for the paper's measurement apparatus:
 * instrumented tcpdump with synchronized ARM architected counters
 * (Table V), the world-switch instrumentation behind Table III, and
 * the per-operation cycle accounting of Table II. Three design rules
 * keep it safe in the hot paths PR 1 optimized:
 *
 *  - Tap names are interned once into small integer TapIds; stamping
 *    a record is a branch plus two stores into a preallocated ring —
 *    no allocation, no string compare.
 *  - The ring has fixed capacity and overwrites the oldest records
 *    when full; overwritten records are *counted* (dropped()), never
 *    silently lost.
 *  - Metrics counters are plain array slots indexed by TapId;
 *    snapshots are sorted by name so output is deterministic even
 *    when taps were interned from parallel sweep workers in
 *    nondeterministic order.
 *
 * Traces export in the Chrome trace-event JSON format, loadable in
 * ui.perfetto.dev, with one timeline track per physical CPU.
 */

#ifndef VIRTSIM_SIM_PROBE_HH
#define VIRTSIM_SIM_PROBE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/lane.hh"
#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace virtsim {

struct ShardProfile;
class FlightRecorder;

/**
 * Interned identifier of a trace tap (a named instrumentation point
 * such as "host.datalink.rx" or "kvm.exit"). Value 0 never names a
 * tap. Intern once (at static-init time or on first use) and stamp
 * with the id; the hot path never touches the intern table.
 */
class TapId
{
  public:
    constexpr TapId() = default;

    constexpr bool valid() const { return idx != 0; }
    constexpr std::uint32_t raw() const { return idx; }

    /** Rebuild an id from raw() — for containers indexed by raw id
     *  (MetricsDomain, EventKernelProfiler), not for minting ids. */
    static constexpr TapId
    fromRaw(std::uint32_t raw)
    {
        return TapId(raw);
    }

    friend constexpr bool operator==(TapId a, TapId b) = default;

  private:
    friend TapId internTap(std::string_view name);
    explicit constexpr TapId(std::uint32_t i) : idx(i) {}

    std::uint32_t idx = 0;
};

/**
 * Intern a tap name, thread-safely. Idempotent: the same name always
 * returns the same id. Ids are assigned in interning order, which may
 * differ between runs under parallel sweeps — consumers must key
 * persistent output by *name* (MetricsRegistry::snapshot does).
 */
TapId internTap(std::string_view name);

/**
 * The process-wide instance of a module's tap struct (a struct whose
 * TapId members are initialized with internTap()), built on first
 * call. A module binds it once — `constexpr auto &nicTaps =
 * tapsOf<NicTaps>;` — and touches it when a component is built, so a
 * world that freezes its metrics domains (prepareForParallel) already
 * covers every tap the component will count.
 */
template <typename Taps>
const Taps &
tapsOf()
{
    static const Taps taps;
    return taps;
}

/** Name of an interned tap ("?" for the invalid id). */
std::string tapName(TapId tap);

/** Number of interned taps (invalid id excluded). */
std::size_t internedTapCount();

/** Record shape: a point event, one end of a span, or one end of a
 *  cross-CPU causal edge (arg carries the edge token). */
enum class TraceKind : std::uint8_t
{
    Instant,
    Begin,
    End,
    EdgeOut, ///< causal edge leaves this track (IPI send, LR write)
    EdgeIn,  ///< causal edge arrives on this track (delivery, ack)
};

/** Coarse category of a trace record (Perfetto "cat" field). */
enum class TraceCat : std::uint8_t
{
    Tap,    ///< Table V style packet timestamp tap
    Switch, ///< world switch / trap / hypercall legs
    Irq,    ///< interrupt delivery and list-register maintenance
    Io,     ///< virtio / grant-table / event-channel I/O
    Sched,  ///< event-kernel scheduling
    Op,     ///< one guest-visible operation (hypercall, vIPI, I/O)
};

const char *to_string(TraceCat cat);

/** Track id for records not tied to a physical CPU. */
inline constexpr std::uint16_t noTrack = 0xffff;

/** One trace record. 24 bytes, POD. */
struct TraceRecord
{
    Cycles when;       ///< simulated time in cycles
    std::uint64_t arg; ///< flow id, cycle cost, irq number, ...
    TapId tap;
    std::uint16_t track; ///< physical CPU, or noTrack
    TraceKind kind;
    TraceCat cat;
};

static_assert(sizeof(TraceRecord) == 24, "TraceRecord grew");

/** Feed one record into a flight recorder's lane-local window ring.
 *  Defined in sim/flight.cc; declared here so TraceSink::push can tee
 *  without including the flight header (probe.hh sits below it). */
void flightRecordBridge(FlightRecorder &fr, const TraceRecord &r);

/**
 * Streaming consumer of trace records. Attach one to a TraceSink with
 * setObserver() to see every record as it is pushed — the basis of
 * online analysis (sim/attrib) that never needs the ring to retain
 * the whole run. Called only when the sink is enabled, on the thread
 * doing the stamping (one sink per sweep worker, so no locking).
 */
class TraceObserver
{
  public:
    virtual ~TraceObserver() = default;
    virtual void onTraceRecord(const TraceRecord &r) = 0;
};

/**
 * Fixed-capacity ring buffer of trace records, partitioned into
 * lane-local segments. Disabled by default: every stamping call is
 * then a single predictable branch. When a segment is full its oldest
 * records are overwritten and counted in dropped() — overflow is
 * never silent (the exporter and reports surface the count).
 *
 * Lane model: the sink owns one ring segment per kernel lane
 * (prepareForParallel(); one segment — the classic serial shape — by
 * default). A stamping call writes only the calling thread's own
 * segment (currentExecLane(), clamped to segment 0 for setup-context
 * stamping), so concurrent lanes never synchronize, share a cache
 * line, or contend while stamping. Exports visit the segments through
 * a canonical merge (see forEachMerged) whose order is a pure
 * function of the record multiset, making exported bytes identical at
 * every lane count as long as no records were dropped. Capacity is
 * per segment.
 */
class TraceSink
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 15;

    /** Edge tokens reserve this many low bits for the issuing lane,
     *  so per-lane token sequences never collide. */
    static constexpr int laneTokenBits = 10;
    static constexpr int maxLanes = 1 << laneTokenBits;

    /** Start recording (allocates the ring on first use). */
    void
    enable()
    {
        if (cap == 0)
            setCapacity(defaultCapacity);
        _enabled = true;
    }

    void disable() { _enabled = false; }
    bool enabled() const { return _enabled; }

    /**
     * Resize each lane segment (rounded up to a power of two) and
     * drop all records. Call before enabling, or between runs.
     */
    void setCapacity(std::size_t records);

    /** Capacity of each lane segment. */
    std::size_t capacity() const { return cap; }

    /**
     * Partition the sink into `lanes` ring segments (dropping any
     * held records), so each kernel lane stamps into its own segment
     * with zero cross-lane synchronization. Call from the setup
     * thread, before lanes run. A single-lane world needs no call:
     * the default single segment is the serial shape.
     */
    void prepareForParallel(int lanes);

    int laneCount() const { return static_cast<int>(segs.size()); }

    /** Drop all records, the dropped/truncated counts and the edge
     *  token sequences; capacity, segmentation, the enabled flag and
     *  any attached observer are retained. */
    void
    clear()
    {
        for (Seg &s : segs) {
            s.head = 0;
            s.total = 0;
            s.truncated = 0;
            s.edgeSeq = 0;
            s.obsMark = 0;
        }
    }

    /** Records currently retained, across all segments. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Seg &s : segs)
            n += segSize(s);
        return n;
    }

    /** Records ever written (retained + dropped), all segments. */
    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        for (const Seg &s : segs)
            n += s.total;
        return n;
    }

    /** Records overwritten because a segment wrapped. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t n = 0;
        for (const Seg &s : segs)
            n += s.total > cap ? s.total - cap : 0;
        return n;
    }

    /**
     * Spans whose opening edge (a Begin, or the `from` stamp of a
     * Tap pair) was overwritten by ring wrap. Post-hoc pairing such
     * as between() would otherwise silently pair the surviving close
     * with a *later* open; this counter makes that hazard visible —
     * reports and the exporter surface it, and Probe::syncTraceHealth
     * publishes it into the metrics snapshot.
     */
    std::uint64_t
    truncatedSpans() const
    {
        std::uint64_t n = 0;
        for (const Seg &s : segs)
            n += s.truncated;
        return n;
    }

    /** Attach (or detach, with nullptr) a streaming observer that
     *  sees every record pushed while the sink is enabled. */
    void setObserver(TraceObserver *o) { obs = o; }

    TraceObserver *observer() const { return obs; }

    /**
     * Tee every pushed record into a flight recorder's sliding window
     * (or stop, with nullptr). Unlike observers there is no deferred
     * mode: the recorder keeps lane-partitioned rings of its own, so
     * the tee is lane-local and race-free from concurrent stamping
     * lanes.
     */
    void setFlightRecorder(FlightRecorder *fr) { flight_ = fr; }

    FlightRecorder *flightRecorder() const { return flight_; }

    /**
     * Switch observer dispatch from inline (at every push, on the
     * stamping thread — the classic streaming mode) to deferred:
     * records accumulate in their lane segments and are delivered in
     * canonical merged order by flushObserver(), which the sharded
     * kernel calls at every barrier round. Multi-lane worlds MUST use
     * deferred mode — inline dispatch from concurrent lanes would
     * race on the observer.
     */
    void setObserverDeferred(bool on) { obsDeferred = on; }
    bool observerDeferred() const { return obsDeferred; }

    /**
     * Deliver every not-yet-delivered record to the observer, merged
     * across segments in canonical order. Call between rounds (or
     * after a run) from one thread. Records a segment overwrote
     * before a flush reached them are lost to the observer and show
     * up in dropped() — flush at least once per ring-fill to stream
     * losslessly.
     */
    void flushObserver();

    /** @name Stamping
     *
     * Hot path. With the sink disabled — the default for every sweep
     * cell unless VIRTSIM_TRACE/VIRTSIM_FLAME asked for records —
     * each call is a single predictable branch and nothing else: no
     * stores, no allocation, no observer dispatch. The [[likely]]
     * hints bias codegen for that dead-probe path; enabling tracing
     * is the explicitly-paid-for slow mode. When enabled, a call is
     * a branch plus stores into the preallocated ring (still no
     * allocation).
     */
    ///@{
    /** Table V style tap: a named timestamp bound to a flow id. */
    void
    stamp(Cycles when, std::uint64_t flow, TapId tap,
          std::uint16_t track = noTrack)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, flow, tap, track, TraceKind::Instant,
                         TraceCat::Tap});
    }

    /** A categorized point event. */
    void
    instant(Cycles when, TapId tap, TraceCat cat,
            std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, arg, tap, track, TraceKind::Instant,
                         cat});
    }

    /** Open a span on a track. Must be matched by end() with the
     *  same tap and track. */
    void
    begin(Cycles when, TapId tap, TraceCat cat,
          std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, arg, tap, track, TraceKind::Begin, cat});
    }

    /** Close the innermost open span with this tap on this track. */
    void
    end(Cycles when, TapId tap, TraceCat cat,
        std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, arg, tap, track, TraceKind::End, cat});
    }

    /** Emit a complete [t0, t1] span in one call. */
    void
    span(Cycles t0, Cycles t1, TapId tap, TraceCat cat,
         std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{t0, arg, tap, track, TraceKind::Begin, cat});
        push(TraceRecord{t1, arg, tap, track, TraceKind::End, cat});
    }

    /**
     * Open a cross-CPU causal edge (IPI send, LR write, wire tx,
     * backend wakeup) and return its token. The token travels with
     * the simulated payload and is redeemed by edgeIn() where the
     * effect lands, linking spans on different tracks into one causal
     * graph. A token is (per-lane sequence << laneTokenBits) | lane —
     * nonzero, never reused across lanes without any cross-lane
     * counter, reset by clear(). Token *values* depend on the lane
     * partition; exporters renumber flows by first appearance in
     * canonical merged order, which does not.
     * @return 0 when disabled (edgeIn ignores token 0).
     */
    std::uint64_t
    edgeOut(Cycles when, TapId tap, TraceCat cat,
            std::uint16_t track = noTrack)
    {
        if (!_enabled) [[likely]]
            return 0;
        Seg &s = laneSeg();
        const std::uint64_t token =
            (++s.edgeSeq << laneTokenBits) |
            static_cast<std::uint64_t>(&s - segs.data());
        push(s, TraceRecord{when, token, tap, track, TraceKind::EdgeOut,
                            cat});
        return token;
    }

    /** Close a causal edge where its effect lands. No-op for token 0
     *  (edge opened while the sink was disabled). */
    void
    edgeIn(Cycles when, std::uint64_t token, TapId tap, TraceCat cat,
           std::uint16_t track = noTrack)
    {
        if (!_enabled || token == 0) [[likely]]
            return;
        push(TraceRecord{when, token, tap, track, TraceKind::EdgeIn,
                         cat});
    }
    ///@}

    /** @name Analysis */
    ///@{
    /** i-th retained record, i in [0, size()): segment concatenation
     *  order — segment 0 in write order, then segment 1, and so on.
     *  With one segment (the classic serial shape) this is exactly
     *  historical write order. */
    const TraceRecord &
    at(std::size_t i) const
    {
        for (const Seg &s : segs) {
            const std::size_t n = segSize(s);
            if (i < n)
                return s.ring[s.total <= cap
                                  ? i
                                  : (s.head + i) & (cap - 1)];
            i -= n;
        }
        VIRTSIM_ASSERT(false, "TraceSink::at(): index out of range");
        return segs[0].ring[0];
    }

    /** Visit retained records in concatenation order (see at()). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            fn(at(i));
    }

    /** Visit only records written at or after a total() watermark
     *  taken earlier (records before it may have been dropped).
     *  Single-segment sinks only — post-hoc incremental analysis of
     *  classic worlds; lane-partitioned sinks stream through the
     *  deferred observer instead. */
    template <typename Fn>
    void
    forEachSince(std::uint64_t mark, Fn &&fn) const
    {
        VIRTSIM_ASSERT(segs.size() == 1,
                       "forEachSince() needs a single-segment sink");
        const Seg &s = segs[0];
        const std::uint64_t first = s.total - segSize(s);
        const std::uint64_t from = mark > first ? mark : first;
        for (std::uint64_t i = from; i < s.total; ++i)
            fn(at(static_cast<std::size_t>(i - first)));
    }

    /**
     * Visit every retained record, merged across segments in
     * canonical order: ascending (when, EdgeOut-before-other-kinds,
     * track, lane, per-lane write position). Under the stamping
     * contract that records sharing a track are stamped by a single
     * lane, ties inside one lane keep model order and cross-lane ties
     * cannot share a track — the order is a pure function of the
     * retained record multiset, so exports built from it are
     * byte-identical at every lane count. Cold path: sorts an index
     * of size() entries per call.
     */
    template <typename Fn>
    void
    forEachMerged(Fn &&fn) const
    {
        for (const MergeRef &m : mergeOrder())
            fn(segs[m.seg].ring[m.slot]);
    }

    /** First tap stamp of the given flow, if retained. */
    std::optional<Cycles> find(std::uint64_t flow, TapId tap) const;

    /**
     * Duration between two tap stamps of the same flow: the first
     * `from` stamp paired with the nearest *following* `to` stamp.
     * Repeated stamps of the same flow (retries, multi-packet
     * transactions) therefore pair up causally instead of matching a
     * stale earlier `to`.
     * @return nullopt if either stamp is missing.
     */
    std::optional<Cycles> between(std::uint64_t flow, TapId from,
                                  TapId to) const;
    ///@}

  private:
    /** One lane's ring segment. While lanes run it is written only by
     *  its lane's thread; segment 0 doubles as the setup-context
     *  segment (lane -1 clamps to it). */
    struct Seg
    {
        /** Ring storage, allocated uninitialized: slots beyond the
         *  retained count are never read, and skipping the zero-fill
         *  keeps per-run setup from faulting in pages the run never
         *  touches. */
        std::unique_ptr<TraceRecord[]> ring;
        std::size_t head = 0;        ///< next write position
        std::uint64_t total = 0;     ///< records ever written here
        std::uint64_t truncated = 0; ///< span opens lost to overwrite
        std::uint64_t edgeSeq = 0;   ///< last edge sequence issued
        std::uint64_t obsMark = 0;   ///< total already flushed to obs
    };

    /** Sort key for the canonical merge; see forEachMerged(). */
    struct MergeRef
    {
        Cycles when;
        std::uint64_t pos;     ///< per-segment absolute write index
        std::uint32_t seg;
        std::uint32_t slot;    ///< ring slot holding the record
        std::uint16_t track;
        std::uint8_t kindPrio; ///< 0 for EdgeOut, 1 otherwise
    };

    static bool mergeLess(const MergeRef &a, const MergeRef &b);

    /** Canonical visiting order over all retained records. */
    std::vector<MergeRef> mergeOrder() const;

    std::size_t
    segSize(const Seg &s) const
    {
        return s.total < cap ? static_cast<std::size_t>(s.total) : cap;
    }

    /** The calling thread's segment: its execution lane, clamped to
     *  segment 0 for setup-context stamping (lane -1) and for sinks
     *  never partitioned by prepareForParallel(). */
    Seg &
    laneSeg()
    {
        const int l = currentExecLane();
        const std::size_t i =
            (l < 1 || static_cast<std::size_t>(l) >= segs.size())
                ? 0
                : static_cast<std::size_t>(l);
        return segs[i];
    }

    void
    push(Seg &s, const TraceRecord &r)
    {
        if (s.total >= cap) {
            // About to overwrite: losing a span's opening edge makes
            // post-hoc pairing unsound, so count it instead of
            // letting between()/analysis mispair silently.
            const TraceRecord &old = s.ring[s.head];
            if (old.kind == TraceKind::Begin ||
                (old.kind == TraceKind::Instant &&
                 old.cat == TraceCat::Tap)) {
                ++s.truncated;
            }
        }
        s.ring[s.head] = r;
        s.head = (s.head + 1) & (cap - 1);
        ++s.total;
        if (flight_)
            flightRecordBridge(*flight_, r);
        if (obs && !obsDeferred)
            obs->onTraceRecord(r);
    }

    void push(const TraceRecord &r) { push(laneSeg(), r); }

    std::vector<Seg> segs = std::vector<Seg>(1);
    std::size_t cap = 0; ///< per-segment capacity, power of two
    TraceObserver *obs = nullptr; ///< streaming consumer, not owned
    FlightRecorder *flight_ = nullptr; ///< window tee, not owned
    bool obsDeferred = false;     ///< deliver at flushObserver() only
    bool _enabled = false;
};

/**
 * Serialize a sink as Chrome trace-event JSON ("traceEvents" array),
 * loadable in ui.perfetto.dev / chrome://tracing. Each track becomes
 * a thread named "cpu<N>"; timestamps convert to microseconds at the
 * machine frequency. Dropped records are reported in the metadata.
 * Records are emitted in canonical merged order (forEachMerged) with
 * flow ids renumbered by first appearance, so the bytes are identical
 * at every lane count. When a timeline with stored samples is passed,
 * its series are merged in as counter tracks ("ph":"C") so gauges
 * render on the same Perfetto timeline as spans and flow arrows; a
 * shard profile likewise merges in as per-lane wall-time counter
 * tracks (host-time measurements — pass it only when its run-to-run
 * variance is acceptable in the output).
 */
void writeChromeTrace(std::ostream &os, const TraceSink &sink,
                      const Frequency &freq,
                      const std::string &process = "virtsim",
                      const TimelineSampler *timeline = nullptr,
                      const ShardProfile *profile = nullptr,
                      const FlightRecorder *flight = nullptr);

/** writeChromeTrace to a file, warning on stderr when the sink lost
 *  records (dropped or truncated spans) so a lossy trace is visible
 *  without opening the JSON. @return false if the file failed to
 *  open (the failure is also logged). */
bool exportChromeTrace(const std::string &path, const TraceSink &sink,
                       const Frequency &freq,
                       const std::string &process = "virtsim",
                       const TimelineSampler *timeline = nullptr,
                       const ShardProfile *profile = nullptr,
                       const FlightRecorder *flight = nullptr);

/** A copyable relaxed-atomic byte flag. Used for MetricsDomain's
 *  used-tap marks so concurrent shard lanes can register the same tap
 *  without a data race, while the flag array stays resizable (plain
 *  std::atomic is not copy-insertable into a vector). */
struct RelaxedFlag
{
    RelaxedFlag() = default;
    RelaxedFlag(const RelaxedFlag &o)
        : v(o.v.load(std::memory_order_relaxed))
    {}
    RelaxedFlag &
    operator=(const RelaxedFlag &o)
    {
        v.store(o.v.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        return *this;
    }

    void set() { v.store(1, std::memory_order_relaxed); }
    bool get() const { return v.load(std::memory_order_relaxed) != 0; }

    std::atomic<std::uint8_t> v{0};
};

/**
 * One level of the metrics hierarchy (machine, one VM, or one CPU):
 * counters and bounded-memory cycle histograms keyed by TapId.
 * Lookup is an array index off the tap id — cheap enough to leave on
 * unconditionally in hypervisor paths.
 *
 * Concurrency contract under the sharded kernel: after
 * prepareForParallel() the counter() path performs no vector growth,
 * so lanes may bump counters in a shared domain concurrently (Counter
 * is internally atomic, the used-flag store is relaxed atomic).
 * Histograms are NOT lane-safe and must stay confined to one lane.
 */
class MetricsDomain
{
  public:
    explicit MetricsDomain(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    Counter &
    counter(TapId tap)
    {
        const std::size_t i = tap.raw();
        if (i >= counters.size()) {
            // Growing under a concurrent reader is UB; once the
            // domain is prepared for parallel lanes a late-interned
            // tap is a deterministic failure, not a latent race.
            VIRTSIM_ASSERT(!parallelPrepared,
                           "tap ", i, " in domain '", _name,
                           "' first touched after ",
                           "prepareForParallel(); intern and warm ",
                           "taps before the parallel phase");
            counters.resize(i + 1);
            used.resize(counters.size());
        }
        used[i].set();
        return counters[i];
    }

    /**
     * Pre-size the counter array to cover ids [0, tapCount), so later
     * counter() calls never reallocate, and freeze both tap-indexed
     * arrays. Must be called (with internedTapCount()) before this
     * domain is touched from concurrent shard lanes. Histograms are
     * not pre-sized: they are lane-confined, and only hypervisors
     * record them (none runs in a parallel world), so a histogram
     * first touched after the freeze is a deterministic failure
     * rather than ~560 bytes per tap in every domain.
     */
    void
    prepareForParallel(std::size_t tapCount)
    {
        if (counters.size() < tapCount + 1) {
            counters.resize(tapCount + 1);
            used.resize(counters.size());
        }
        parallelPrepared = true;
    }

    /**
     * Lift the prepareForParallel() growth freeze once the parallel
     * phase is over (every lane joined). Post-run publishers may
     * then intern late taps again from a single thread — the shard
     * health counters use this: their per-lane rows are sparse and
     * lane-count-dependent, so pre-warming every possible name would
     * defeat the point of sparse publication.
     */
    void endParallel() { parallelPrepared = false; }

    HistogramStat &
    histogram(TapId tap)
    {
        const std::size_t i = tap.raw();
        if (i >= hists.size()) {
            VIRTSIM_ASSERT(!parallelPrepared,
                           "tap ", i, " in domain '", _name,
                           "' first touched after ",
                           "prepareForParallel(); intern and warm ",
                           "taps before the parallel phase");
            hists.resize(i + 1);
            histUsed.resize(hists.size());
        }
        histUsed[i].set();
        return hists[i];
    }

    /**
     * Read a counter's value without registering the tap. counter()
     * marks the tap used — which adds a row to every later snapshot —
     * so read-only consumers (timeline rate gauges sampling
     * world-switch counts) must use this instead. Returns 0 for taps
     * never registered in this domain. Never allocates.
     */
    std::uint64_t
    value(TapId tap) const
    {
        const std::size_t i = tap.raw();
        if (i >= counters.size() || !used[i].get())
            return 0;
        return counters[i].value();
    }

    /** Zero every counter and histogram; registered taps stay
     *  registered so reruns report the same rows. */
    void reset();

    /** Visit used counters as (tap, value). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        for (std::size_t i = 0; i < counters.size(); ++i) {
            if (used[i].get()) {
                fn(TapId::fromRaw(static_cast<std::uint32_t>(i)),
                   counters[i].value());
            }
        }
    }

    /** Visit used histograms as (tap, stat). */
    template <typename Fn>
    void
    forEachHistogram(Fn &&fn) const
    {
        for (std::size_t i = 0; i < hists.size(); ++i) {
            if (histUsed[i].get()) {
                fn(TapId::fromRaw(static_cast<std::uint32_t>(i)),
                   hists[i]);
            }
        }
    }

  private:
    std::string _name;
    std::vector<Counter> counters;
    std::vector<RelaxedFlag> used;
    std::vector<HistogramStat> hists;
    std::vector<RelaxedFlag> histUsed;
    /** Once set, the tap-indexed arrays are frozen: growth would
     *  race with concurrent shard-lane readers. */
    bool parallelPrepared = false;
};

/** Deterministic, name-sorted snapshot of a MetricsRegistry. */
struct MetricsSnapshot
{
    struct CounterRow
    {
        std::string domain;
        std::string name;
        std::uint64_t value = 0;

        friend bool operator==(const CounterRow &,
                               const CounterRow &) = default;
    };

    struct HistogramRow
    {
        std::string domain;
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        double mean = 0.0;

        friend bool operator==(const HistogramRow &,
                               const HistogramRow &) = default;
    };

    std::vector<CounterRow> counters;   ///< sorted by (domain, name)
    std::vector<HistogramRow> histograms;

    friend bool operator==(const MetricsSnapshot &,
                           const MetricsSnapshot &) = default;

    /** All rows, one per line ("domain/name = value"). */
    std::string render() const;

    /** Compact per-VM digest for bench reports: traps, world
     *  switches, and virtual IRQs per VM domain. */
    std::string brief() const;

    /** JSON object {"counters": [...], "histograms": [...]}. */
    std::string toJson() const;
};

/**
 * Hierarchical metrics: one machine domain, one domain per VM and per
 * physical CPU. Domains are created on first use and never move.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();

    MetricsDomain &machine() { return *_machine; }

    /** Per-VM domain, keyed by VM name (rendered as "vm:<name>"). */
    MetricsDomain &vm(const std::string &name);

    /** Per-physical-CPU domain (rendered as "cpu:<N>"). */
    MetricsDomain &cpu(int pcpu);

    /**
     * Pre-create the per-CPU domains for nCpus CPUs and pre-size
     * every existing domain's counters for all currently interned
     * taps, so no domain lookup or counter registration allocates
     * afterwards.
     * Call once (from one thread) before shard lanes run in parallel;
     * has no effect on snapshot contents.
     */
    void prepareForParallel(int nCpus);

    /** Lift every domain's growth freeze after the parallel phase
     *  (see MetricsDomain::endParallel). */
    void endParallel();

    /** Zero all counters and histograms in every domain. */
    void reset();

    MetricsSnapshot snapshot() const;

  private:
    // Domains are held by pointer so references handed out by
    // vm()/cpu() stay valid as the maps grow.
    std::unique_ptr<MetricsDomain> _machine;
    std::vector<std::pair<std::string, std::unique_ptr<MetricsDomain>>>
        _vms;
    std::vector<std::unique_ptr<MetricsDomain>> _cpus;
};

/**
 * Event-kernel dispatch profiler: per-label histograms of the latency
 * between an event's scheduling time and the simulated time it fired
 * (how far ahead work is scheduled — the shape of the event kernel's
 * workload). Installed into an EventQueue via setProfiler(); when not
 * installed the kernel pays one predictable branch per event.
 *
 * Under the sharded kernel, call prepareForParallel() and install the
 * profiler into every lane: record() then lands in the calling
 * thread's own lane-local histogram array (fixed-size — no growth, no
 * sharing, no synchronization) and the read side merges lanes into
 * one deterministic view (HistogramStat::merge is exact and
 * order-independent).
 */
class EventKernelProfiler
{
  public:
    void
    record(TapId label, Cycles wait)
    {
        const std::size_t i = label.raw();
        if (!laneHists.empty()) {
            const int l = currentExecLane();
            const std::size_t li =
                (l < 1 || static_cast<std::size_t>(l) >= laneHists.size())
                    ? 0
                    : static_cast<std::size_t>(l);
            std::vector<HistogramStat> &h = laneHists[li];
            VIRTSIM_ASSERT(i < h.size(),
                           "tap interned after "
                           "EventKernelProfiler::prepareForParallel()");
            h[i].add(wait);
            return;
        }
        if (i >= hists.size())
            hists.resize(i + 1);
        hists[i].add(wait);
    }

    /**
     * Partition into `lanes` histogram arrays pre-sized for every tap
     * interned so far (see internedTapCount()), so concurrent lanes
     * record without synchronization. Call from the setup thread
     * after all event labels are interned; recording a later-interned
     * label is a deterministic assert. reset() drops the partition.
     */
    void prepareForParallel(int lanes, std::size_t tapCount);

    /**
     * Histogram for a label, or null if never recorded. Lanes merged;
     * the pointer aliases a scratch slot that the next histogram()
     * call reuses, so copy (or finish reading) before asking for
     * another label.
     */
    const HistogramStat *histogram(TapId label) const;

    void
    reset()
    {
        hists.clear();
        laneHists.clear();
    }

    /** One line per label, sorted by name; the invalid label renders
     *  as "(unlabeled)". Lanes merged. */
    std::string render() const;

  private:
    /** Lanes-merged histogram for raw id i (count 0 if never hit). */
    HistogramStat mergedAt(std::size_t i) const;

    std::size_t labelLimit() const;

    std::vector<HistogramStat> hists; ///< serial mode, by raw tap id
    /** Parallel mode: [lane][raw tap id], fixed-size after
     *  prepareForParallel(). Non-empty iff parallel mode is armed. */
    std::vector<std::vector<HistogramStat>> laneHists;
    mutable HistogramStat mergeScratch; ///< histogram() return slot
};

/**
 * The observability bundle a Machine owns: trace sink + metrics +
 * event-kernel profiler + timeline sampler + request-latency tracker,
 * reset together between workload runs.
 */
struct Probe
{
    TraceSink trace;
    MetricsRegistry metrics;
    EventKernelProfiler profiler;
    TimelineSampler timeline;
    RequestTracker latency;

    void
    reset()
    {
        trace.clear();
        metrics.reset();
        profiler.reset();
        timeline.resetSeries();
        latency.reset();
    }

    /**
     * Publish trace-ring health (dropped records, truncated spans)
     * into machine-domain counters so a metrics snapshot carries the
     * loss alongside the numbers it may have biased. Counters are
     * only created when the count is nonzero — clean runs snapshot
     * byte-identically with or without this call.
     */
    void syncTraceHealth();

    /**
     * Intern the trace-health tap names now. A world that calls
     * MetricsRegistry::prepareForParallel() must warm these first:
     * syncTraceHealth() runs at export time, long after the domains
     * froze their tap arrays, and a lossy trace would otherwise be
     * the first (fatal) late intern. Interning adds no counter rows,
     * so clean snapshots are unchanged.
     */
    void warmTraceHealth();
};

} // namespace virtsim

#endif // VIRTSIM_SIM_PROBE_HH
