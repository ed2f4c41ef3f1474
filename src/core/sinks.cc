#include "core/sinks.hh"

#include <algorithm>
#include <fstream>
#include <mutex>

#include "core/report.hh"
#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/shard_profile.hh"

namespace virtsim {

namespace {

void
writeExport(const std::string &path, const char *what,
            const std::string &body)
{
    std::ofstream os(path);
    if (!os)
        warn("cannot open ", what, " file ", path);
    else
        os << body;
}

} // namespace

std::string
taggedPath(const std::string &path, const std::string &tag)
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos ||
        path.find('/', dot) != std::string::npos)
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

Sinks::Sinks(Machine &machine, ShardedEventKernel &kernel,
             std::string label, std::string tag)
    : machine(machine), kern(kernel), label(std::move(label)),
      tag(std::move(tag)), cfg(SinkConfig::fromEnv())
{
    // Resize before anything enables the ring (rounded up to a power
    // of two; 24 bytes per record).
    if (cfg.traceCapacity > 0)
        machine.trace().setCapacity(
            static_cast<std::size_t>(cfg.traceCapacity));
}

void
Sinks::arm(const SinkPlan &plan)
{
    Probe &p = machine.probe();
    const Frequency &freq = machine.freq();
    // Incident forensics needs both the stamping tee (trace sink) and
    // the timeline tick, so arming it arms both.
    const bool incidentsOn = !cfg.incidents.empty();
    if ((plan.trace || !cfg.trace.empty() || !cfg.flame.empty() ||
         incidentsOn) &&
        !p.trace.enabled()) {
        p.trace.enable();
        p.trace.prepareForParallel(plan.lanes);
    }
    if (!cfg.flame.empty())
        attribution();

    const bool latencyOn = plan.latency || !cfg.latency.empty();
    if (latencyOn && !p.latency.enabled()) {
        p.latency.configure(machine.numCpus());
        p.latency.enable();
        p.latency.prepareForParallel(plan.lanes);
    }
    if (latencyOn && !slo_.armed()) {
        // The default objective: p99 RTT within the world's threshold
        // with at most 1% of requests above it, judged live over 2 ms
        // burn windows. The env overrides apply to every objective.
        std::vector<SloSpec> specs = plan.slos;
        if (specs.empty()) {
            SloSpec def;
            def.name = "rtt_p99";
            def.phase = LatencyPhase::Rtt;
            def.quantile = 0.99;
            def.thresholdCycles = freq.cycles(plan.defaultSloP99Us);
            def.maxViolationFraction = 0.01;
            def.burnWindow = freq.cycles(2000.0);
            specs.push_back(def);
        }
        for (SloSpec &s : specs) {
            if (cfg.sloP99Us)
                s.thresholdCycles = freq.cycles(*cfg.sloP99Us);
            if (cfg.sloMaxViolation)
                s.maxViolationFraction = *cfg.sloMaxViolation;
            slo_.addSpec(std::move(s));
        }
        slo_.bind(&p.latency);
        slo_.warmTaps();
    }

    // Sampling also arms under VIRTSIM_TRACE alone so the Perfetto
    // export carries counter tracks next to its spans and flows, and
    // under latency tracking: SLO burn windows evaluate in the
    // timeline sample hook.
    if (plan.timelineHz > 0.0 || !cfg.timeline.empty() ||
        !cfg.trace.empty() || latencyOn || incidentsOn) {
        const double hz =
            plan.timelineHz > 0.0 ? plan.timelineHz : cfg.timelineHz;
        TimelineSampler &tl = p.timeline;
        tl.enable(std::max<Cycles>(1, freq.cyclesFromSeconds(1.0 / hz)));
        if (plan.rules)
            plan.rules(tl);
        // Gauges and hooks install once per world, after the
        // machine's own (registration order is export order).
        if (slo_.armed() &&
            tl.findGauge("slo." + slo_.specs().front().name + ".q_us") <
                0) {
            slo_.installTimeline(tl, freq);
        }
        // Shard health gauges are lane-dependent, so they ride the
        // same explicit opt-in as the shard counters in the metrics
        // export; registerGauges itself stays lane-count safe.
        if (cfg.shardStats && tl.findGauge("shard.lanes_live") < 0)
            kern.registerGauges(tl);
        if (incidentsOn && !flight.enabled()) {
            // Arm last: enable() sizes tick-row storage from the
            // gauge count, so every registration above must be done.
            flight.configure(
                std::max<Cycles>(1, freq.cycles(cfg.incidentWindowUs)),
                tl.period(), cfg.incidentCap);
            flight.bind(&tl, latencyOn ? &p.latency : nullptr);
            flight.prepareForParallel(plan.lanes);
            flight.enable();
            p.trace.setFlightRecorder(&flight);
            FlightRecorder *fr = &flight;
            tl.addPostSampleHook([fr](Cycles now) { fr->onSample(now); });
            const TimelineSampler *tlp = &tl;
            tl.setAnomalyHook(
                [fr, tlp](Cycles now, std::uint32_t ri, bool open) {
                    fr->onAnomaly(now, tlp->ruleName(ri), open);
                });
            if (slo_.armed()) {
                SloEngine *se = &slo_;
                slo_.setBreachHook([fr, se](Cycles now, std::size_t i) {
                    fr->trigger(now,
                                "slo." + se->specs()[i].name + ".burn");
                });
            }
        }
    }

    if (plan.trace || !cfg.trace.empty() || !cfg.metrics.empty() ||
        !cfg.flame.empty() || !cfg.timeline.empty()) {
        // One lane records into the serial histograms, which grow on
        // demand; lanes recording concurrently need fixed arrays
        // sized for every tap interned so far.
        if (plan.lanes > 1)
            p.profiler.prepareForParallel(plan.lanes, internedTapCount());
        for (int i = 0; i < plan.lanes; ++i)
            kern.lane(i).setProfiler(&p.profiler);
    }
    if (!cfg.shardProfile.empty())
        kern.enableShardProfile();
}

CausalAnalyzer &
Sinks::attribution()
{
    if (!attrib) {
        attrib = std::make_unique<CausalAnalyzer>();
        machine.trace().enable();
        machine.trace().setObserver(attrib.get());
    }
    return *attrib;
}

void
Sinks::reset()
{
    // Histogram counts went back to zero; the burn-window bases the
    // live SLO state holds would be stale against them.
    slo_.reset();
    flight.reset();
    if (attrib)
        attrib->reset();
}

void
Sinks::exportAll(Cycles now)
{
    if (!cfg.exportsAnything())
        return;
    // Parallel sweeps tear testbeds down from worker threads; exports
    // go one at a time. Same-tag worlds still share a path (last
    // writer wins); distinct tags never clobber each other.
    static std::mutex export_mutex;
    std::lock_guard<std::mutex> lock(export_mutex);
    const Frequency &freq = machine.freq();
    const TimelineSampler &tl = machine.probe().timeline;
    // The shard profile merges into the Perfetto export as counter
    // tracks only when explicitly armed, keeping the default trace
    // free of host-timing noise.
    const ShardProfile *sp =
        kern.shardProfile().enabled() ? &kern.shardProfile() : nullptr;
    // Capture incident windows still waiting on their post-trigger
    // half before the trace annotations and incident files write.
    if (flight.enabled())
        flight.finalize(now);
    if (!cfg.trace.empty()) {
        exportChromeTrace(taggedPath(cfg.trace, tag), machine.trace(),
                          freq, label, &tl, sp,
                          flight.enabled() ? &flight : nullptr);
    }
    if (!cfg.incidents.empty() && flight.enabled()) {
        flight.exportIncidents(cfg.incidents, freq, tag);
        const std::string s = renderIncidentSummary(flight, freq);
        if (!s.empty())
            inform("\n", s);
    }
    if (!cfg.shardProfile.empty()) {
        exportShardProfile(taggedPath(cfg.shardProfile, tag),
                           kern.shardProfile());
        inform("\n", renderShardSummary(kern.shardProfile()));
    }
    if (!cfg.flame.empty() && attrib)
        attrib->writeFoldedFile(taggedPath(cfg.flame, tag), label);
    if (!cfg.timeline.empty()) {
        const std::string path = taggedPath(cfg.timeline, tag);
        const bool csv = path.size() > 4 &&
                         path.compare(path.size() - 4, 4, ".csv") == 0;
        writeExport(path, "timeline",
                    csv ? tl.renderCsv(freq) : tl.renderJson(freq) + "\n");
    }
    if (!cfg.latency.empty()) {
        const RequestTracker &lat = machine.probe().latency;
        writeExport(taggedPath(cfg.latency, tag), "latency",
                    renderLatencyJson(lat, freq, label,
                                      slo_.armed() ? slo_.verdictsJson(freq)
                                                   : std::string()) +
                        "\n");
        inform("\n", renderLatencySummary(lat, freq));
    }
    if (!cfg.metrics.empty()) {
        MetricsRegistry &metrics = machine.metrics();
        machine.probe().syncTraceHealth();
        // Watchdog findings land in the snapshot too, so a metrics
        // dump carries the anomaly verdict even when nobody keeps
        // the timeline file.
        tl.publishAnomalies(metrics);
        if (slo_.armed())
            slo_.publish(metrics);
        if (cfg.shardStats) {
            // Every lane has joined by export time, so the publisher
            // may intern the sparse, lane-count-dependent shard taps
            // a frozen domain could not pre-warm.
            metrics.endParallel();
            kern.publishStats(metrics);
        }
        writeExport(taggedPath(cfg.metrics, tag), "metrics",
                    metrics.snapshot().toJson() + "\n");
    }
}

} // namespace virtsim
