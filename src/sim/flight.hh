/**
 * @file
 * Incident forensics: an always-on flight recorder with automated
 * anomaly root-cause reports.
 *
 * The interesting behavior in the paper's multicore results — IPI
 * storms, LR maintenance bursts, vhost wakeup stalls — is transient:
 * by the time a 256-VM overload run exports its rings, the trace
 * context surrounding a watchdog anomaly has long been overwritten.
 * The FlightRecorder fixes that by retaining a *sliding simulated-time
 * window* of trace records, timeline tick rows and latency-phase
 * cumulatives independently of the export rings, and freezing that
 * window into a structured incident the instant a trigger fires.
 *
 * Cost model mirrors TraceSink: the stamping tee (record()) is one
 * predictable branch while disabled and lane-local ring stores while
 * enabled — zero cross-lane synchronization, zero allocation. All
 * other bookkeeping (the eviction cut, reference sealing, incident
 * capture) runs in a timeline post-sample hook: barrier context,
 * every lane quiescent, at period-aligned simulated instants — so it
 * is race-free and its results are lane-count independent.
 *
 * Window model: a trigger at simulated time t freezes [t−W, t+W]
 * (W = VIRTSIM_INCIDENT_WINDOW_US, owned by the world that arms the
 * recorder). Records are retained for R = 2W + 8·period behind the
 * barrier clock, which always covers a full window at the moment it
 * is captured: capture happens at the first barrier tick strictly
 * after t+W, i.e. at now ≤ t+W+period, and now − (t−W) ≤ 2W+period
 * < R. Span End records may be stamped *ahead* of the event that
 * produced them (frontier charging), so eviction is driven by the
 * barrier clock only — never by stamped record times.
 *
 * Eviction costs what it evicts. Each barrier tick publishes the cut
 * now − R and pops stale records off each segment's tail, stopping at
 * the first in-retention one. Stale records stuck behind it stay until
 * a push finds their segment full; the owning lane then compacts them
 * away, at most once per published cut. Since any window still to be
 * captured begins after the latest cut, eviction timing never changes
 * what a capture reads — only when a full segment overwrites.
 *
 * Trigger sources: watchdog anomaly open/close (TimelineSampler's
 * anomaly hook) and SLO burn breach (SloEngine's breach hook).
 * Same-tick firings merge into one incident. Each captured incident
 * carries: the in-window record multiset (canonically sorted — the
 * same key TraceSink::forEachMerged uses, so bytes are identical at
 * every VIRTSIM_SHARDS), a CausalAnalyzer blame report over just the
 * window, the window's critical path, a blame diff against a healthy
 * reference window sealed early in the run ("what changed when the
 * anomaly started"), in-window gauge series, and per-phase latency
 * deltas. Export is one "virtsim-incident-1" JSON per incident under
 * VIRTSIM_INCIDENTS=<dir>, capped with drop accounting.
 */

#ifndef VIRTSIM_SIM_FLIGHT_HH
#define VIRTSIM_SIM_FLIGHT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/attrib.hh"
#include "sim/latency.hh"
#include "sim/probe.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace virtsim {

/** One frozen incident: the forensic context around a trigger. */
struct FlightIncident
{
    std::uint32_t seq = 0;  ///< 0-based capture order
    Cycles triggerAt = 0;   ///< simulated instant of the first firing
    /** Trigger source labels ("watchdog.<rule>.open",
     *  "slo.<name>.burn", ...), sorted and deduplicated. */
    std::vector<std::string> sources;

    Cycles begin = 0; ///< window start, max(triggerAt − W, 0)
    Cycles end = 0;   ///< window end, triggerAt + W (clamped when clipped)
    /** Run ended before the post-trigger half of the window elapsed;
     *  end was clamped to the final time. */
    bool clipped = false;
    /** A lane ring overwrote records stamped at/after begin — the
     *  window may be missing context (surfaced, never silent). */
    bool truncated = false;

    /** In-window records, canonically sorted (when, EdgeOut-first,
     *  track, per-lane write position). */
    std::vector<TraceRecord> records;

    /** Per-primitive self-cycle blame over just the window. */
    BlameReport blame;
    /** Latency-critical chain through the window's causal graph. */
    CriticalPath critical;

    /** One in-window gauge series (carry-in sample plus changes). */
    struct GaugeSeries
    {
        std::string name;
        std::uint16_t track = gaugeNoTrack;
        std::vector<TimelineSample> samples;
    };
    std::vector<GaugeSeries> gauges; ///< timeline registration order

    /** Per-phase latency inside the window plus cumulative quantiles
     *  at capture time. */
    struct PhaseStat
    {
        std::uint64_t windowCount = 0; ///< samples recorded in-window
        std::uint64_t windowSum = 0;   ///< their summed cycles
        std::uint64_t p50 = 0;         ///< cumulative p50 at capture
        std::uint64_t p99 = 0;         ///< cumulative p99 at capture
    };
    std::array<PhaseStat, numLatencyPhases> phases{};
};

/**
 * The always-on flight recorder. Owned by a world (Testbed /
 * FleetWorld — the SloEngine pattern), fed by the TraceSink tee
 * (TraceSink::setFlightRecorder) and by a timeline post-sample hook.
 *
 * Setup order: configure() the window, bind() the timeline and
 * request tracker, prepareForParallel() alongside the sink, then
 * enable() *last* — after every gauge is registered (installTimeline,
 * registerGauges) — since enable() sizes the tick-row storage from
 * the bound timeline's gauge count.
 */
class FlightRecorder
{
  public:
    /** Per-lane window ring capacity (records). More lanes add
     *  capacity, but one lane can fill its segment with in-retention
     *  records and overwrite some: the serial fleet overload run does.
     *  An overwrite of a record at or after a window's begin marks
     *  that incident truncated. */
    static constexpr std::size_t segCapacity = 1u << 15;

    FlightRecorder() = default;
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Set the window half-width W, the timeline period driving the
     * maintenance hook, and the captured-incident cap. Retention is
     * derived (2W + 8·period). Call before enable().
     */
    void configure(Cycles windowHalf, Cycles period,
                   std::uint32_t incidentCap);

    /** Bind the gauge source and the latency tracker (either may be
     *  null: the matching incident sections export empty). */
    void
    bind(const TimelineSampler *tl, const RequestTracker *lat)
    {
        timeline = tl;
        tracker = lat;
    }

    /** Partition the window ring into `lanes` lane-local segments
     *  (the TraceSink shape). Setup thread only. */
    void prepareForParallel(int lanes);

    int laneCount() const { return static_cast<int>(segs.size()); }

    /** Arm recording. Allocates the ring segments and tick-row
     *  storage; call after configure()/bind()/prepareForParallel()
     *  and after the bound timeline registered every gauge. */
    void enable();

    void disable() { _enabled = false; }
    bool enabled() const { return _enabled; }

    Cycles windowHalf() const { return window; }
    Cycles retention() const { return _retention; }

    /** @name Stamping tee
     *  Hot path, called for every TraceSink push. Disabled: one
     *  predictable branch. Enabled: lane-local ring stores only. */
    ///@{
    void
    record(const TraceRecord &r)
    {
        if (!_enabled) [[likely]]
            return;
        pushRecord(r);
    }
    ///@}

    /**
     * Open a pending incident around simulated instant `now`.
     * Triggers at the same instant merge into one incident; beyond
     * the incident cap the firing is counted in incidentsDropped().
     * Barrier/setup context only (trigger sources are timeline and
     * SLO hooks, which run at barrier ticks).
     */
    void trigger(Cycles now, std::string source);

    /** Watchdog anomaly trigger adapter: labels the source
     *  "watchdog.<rule>.open" / ".close". */
    void onAnomaly(Cycles now, const std::string &rule, bool open);

    /**
     * Window maintenance, run as a timeline post-sample hook at every
     * barrier tick: evict records and tick rows past retention,
     * append the tick row (gauge values + latency cumulatives), seal
     * the healthy reference window once 2W of run has elapsed, and
     * capture any pending incident whose window has fully elapsed.
     */
    void onSample(Cycles now);

    /** End-of-run flush: capture still-pending incidents with their
     *  windows clipped to `now`. Call before exporting. */
    void finalize(Cycles now);

    std::size_t incidentCount() const { return incidents.size(); }
    const FlightIncident &incident(std::size_t i) const;
    /** Trigger firings lost to the incident cap. */
    std::uint64_t incidentsDropped() const { return _dropped; }

    /** Records retained across all lane segments: those stamped at
     *  or after the last published cut. */
    std::size_t retainedRecords() const;

    /** The healthy reference window, once sealed. */
    bool referenceSealed() const { return refSealed; }
    Cycles referenceEnd() const { return refEnd; }
    const BlameReport &referenceBlame() const { return refBlame; }

    /** One incident as a "virtsim-incident-1" JSON document. */
    std::string renderIncidentJson(std::size_t i, const Frequency &freq,
                                   const std::string &world) const;

    /**
     * Write one JSON file per captured incident into `dir`
     * ("incident.<world>.<NNN>.json"), creating the directory as
     * needed. @return false when the directory or a file could not
     * be created (logged). */
    bool exportIncidents(const std::string &dir, const Frequency &freq,
                         const std::string &world) const;

    /** Emit Chrome-trace annotation events (one complete event per
     *  incident window plus a trigger instant), each preceded by
     *  ",\n" — the TimelineSampler::writeCounterEvents contract. */
    void writeAnnotationEvents(std::ostream &os,
                               const Frequency &freq) const;

    /** Drop records, rows, incidents, pendings and the reference;
     *  keep configuration, binding, segmentation and the enabled
     *  flag (the Probe::reset() contract). */
    void reset();

  private:
    /** One lane's window ring. While lanes run it is written only by
     *  its lane's thread; segment 0 doubles as the setup-context
     *  segment (the TraceSink clamp). */
    struct Seg
    {
        std::unique_ptr<TraceRecord[]> ring;
        std::size_t head = 0;  ///< next write slot
        std::size_t count = 0; ///< live records
        std::uint64_t total = 0;  ///< records ever written here
        std::uint64_t forced = 0; ///< overwrites of unevicted records
        Cycles maxForcedWhen = 0; ///< newest stamp lost to overwrite
        Cycles compactedCut = 0;  ///< cut the lane last compacted to
    };

    /** A trigger whose post-window has not elapsed yet. */
    struct Pending
    {
        Cycles at = 0;
        Cycles begin = 0;
        Cycles end = 0;
        std::vector<std::string> sources;
    };

    Seg &laneSeg();
    void pushRecord(const TraceRecord &r);
    void compact(Seg &s);
    void evict(Cycles now);
    void appendRow(Cycles now);
    void sealReference(Cycles now);
    void capture(Pending &p, bool clipped);
    std::vector<TraceRecord> collectWindow(Cycles begin,
                                           Cycles end) const;

    const TimelineSampler *timeline = nullptr;
    const RequestTracker *tracker = nullptr;

    Cycles window = 0;     ///< half-width W
    Cycles _period = 0;
    Cycles _retention = 0; ///< 2W + 8·period
    /** Records stamped before this are stale: now − R at the last
     *  eviction tick. Written at barriers, read by lanes on push. */
    Cycles cut = 0;
    std::uint32_t cap = 0; ///< captured-incident cap

    std::vector<Seg> segs = std::vector<Seg>(1);

    /** Tick-row ring: per-tick gauge values and latency cumulatives,
     *  laid out flat (row r at r·stride). */
    std::unique_ptr<Cycles[]> rowWhen;
    std::unique_ptr<std::int64_t[]> rowGauge;    ///< rows × nGauges
    std::unique_ptr<std::uint64_t[]> rowPhase;   ///< rows × phases × 2
    std::size_t rowCap = 0;
    std::size_t rowHead = 0;  ///< next write row
    std::size_t rowCount = 0; ///< live rows
    std::size_t nGauges = 0;

    std::vector<Pending> pendings;
    std::vector<FlightIncident> incidents;
    std::uint64_t _dropped = 0;

    bool refSealed = false;
    Cycles refEnd = 0;
    std::uint64_t refRecords = 0;
    BlameReport refBlame;

    bool _enabled = false;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_FLIGHT_HH
