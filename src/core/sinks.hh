/**
 * @file
 * The observability sink layer both worlds share.
 *
 * A Testbed (core/testbed) and the fleet world (core/fleet) arm the
 * same sinks from the same SinkConfig (sim/env) and write the same
 * exports through one Sinks object. What differs between the worlds
 * is data in a SinkPlan, or stays at the world's own call site (how
 * the timeline tick and the deferred trace observer are driven).
 */

#ifndef VIRTSIM_CORE_SINKS_HH
#define VIRTSIM_CORE_SINKS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "sim/attrib.hh"
#include "sim/env.hh"
#include "sim/flight.hh"
#include "sim/shard.hh"
#include "sim/slo.hh"

namespace virtsim {

/** What a world asks of the sink layer beyond its environment. */
struct SinkPlan
{
    /** Kernel lanes that stamp into the sinks: the lane-partitioned
     *  sinks get one segment each. A classic testbed stamps from
     *  lane 0 only. */
    int lanes = 1;
    /** Threshold of the default p99 RTT objective, microseconds;
     *  used when `slos` is empty. */
    double defaultSloP99Us = 0.0;
    /** Latency objectives; empty = one default objective. */
    std::vector<SloSpec> slos;
    bool trace = false;   ///< record a trace even without VIRTSIM_TRACE
    bool latency = false; ///< track latency even without VIRTSIM_LATENCY
    /** When positive: sample at this rate (overriding
     *  VIRTSIM_TIMELINE_HZ) even without an export asking. */
    double timelineHz = 0.0;
    /** Installs the world's watchdog rules each time sampling arms,
     *  after the machine's gauges and before the SLO's. */
    std::function<void(TimelineSampler &)> rules;
};

/** One world's sink state and its arm/export path. */
class Sinks
{
  public:
    /** Read SinkConfig::fromEnv() (fatal on any garbage knob).
     *  `label` names the world inside exports ("KVM ARM", "fleet");
     *  `tag` suffixes export paths and names incident reports. */
    Sinks(Machine &machine, ShardedEventKernel &kernel, std::string label,
          std::string tag);

    Sinks(const Sinks &) = delete;
    Sinks &operator=(const Sinks &) = delete;

    /**
     * Arm every sink the config and `plan` ask for. A world may call
     * it again after extending its plan; each call arms only what is
     * not armed yet. Interns the latency and SLO taps, so a world
     * that freezes its metric domains
     * (MetricsRegistry::prepareForParallel) arms first. The flight
     * recorder arms last, once every gauge is registered.
     */
    void arm(const SinkPlan &plan);

    /** The streaming causal analyzer; the first call enables the
     *  trace sink and attaches the analyzer as its observer. */
    CausalAnalyzer &attribution();

    SloEngine &slo() { return slo_; }
    const SloEngine &slo() const { return slo_; }

    /** Drop run-scoped state: live SLO windows, captured incidents,
     *  accumulated blame. Arming survives. */
    void reset();

    /**
     * Write every armed export, in this order: trace, incidents,
     * shard profile, flame, timeline, latency, metrics. Incident
     * windows still waiting on their post-trigger half close at
     * `now` first. Call once, after the run. Exports from concurrent
     * worlds go one at a time.
     */
    void exportAll(Cycles now);

  private:
    Machine &machine;
    ShardedEventKernel &kern;
    std::string label;
    std::string tag;
    SinkConfig cfg;
    SloEngine slo_;
    FlightRecorder flight;
    std::unique_ptr<CausalAnalyzer> attrib;
};

/**
 * "out.json" + "kvm_arm" -> "out.kvm_arm.json"; a path without an
 * extension gets the tag appended ("out" -> "out.fleet"). Worlds that
 * export side by side write distinct files instead of clobbering a
 * shared path.
 */
std::string taggedPath(const std::string &path, const std::string &tag);

} // namespace virtsim

#endif // VIRTSIM_CORE_SINKS_HH
