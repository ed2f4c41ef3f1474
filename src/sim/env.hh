/**
 * @file
 * Validated environment-variable parsing.
 *
 * Every numeric VIRTSIM_* knob goes through one parser with one
 * failure mode: a clear fatal() naming the variable and the offending
 * value. Silent fallbacks are banned — a typo'd VIRTSIM_TRACE_CAPACITY
 * that quietly kept the default once cost a day of confusion over a
 * "lossy" trace.
 */

#ifndef VIRTSIM_SIM_ENV_HH
#define VIRTSIM_SIM_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace virtsim {

/**
 * Parse environment variable `name` as a strictly positive integer.
 * @return nullopt when unset or empty; the value otherwise.
 *
 * fatal()s (user error, exit(1)) on anything else: non-numeric text,
 * trailing garbage ("4k"), zero, negative values, or values that
 * overflow either uint64 or the caller's `max`.
 */
std::optional<std::uint64_t> envPositiveCount(const char *name,
                                              std::uint64_t max =
                                                  UINT64_MAX);

/**
 * Parse environment variable `name` as a strictly positive real
 * number (decimal notation, e.g. "60" or "12.5").
 * @return nullopt when unset or empty; the value otherwise.
 *
 * fatal()s on non-numeric text, trailing garbage, a leading sign,
 * zero, non-finite values, or values above `max`.
 */
std::optional<double> envPositiveReal(const char *name,
                                      double max = 1e18);

/**
 * Parse environment variable `name` as a fraction in [0, 1]
 * (e.g. "0.01"). Zero is allowed — "no violations tolerated" is a
 * meaningful SLO.
 * @return nullopt when unset or empty; the value otherwise.
 *
 * fatal()s on non-numeric text, trailing garbage, a leading sign, or
 * values outside [0, 1].
 */
std::optional<double> envUnitFraction(const char *name);

/**
 * The observability-sink knobs, read and validated together: each
 * world (core/testbed, core/fleet) builds one through fromEnv() and
 * arms its sinks from it (core/sinks), so each knob is parsed in
 * exactly one place. Validation is eager: a garbage value is fatal
 * even when the sink it tunes stays off. Paths are empty when their
 * knob is unset or empty; numeric fields hold the defaults the sinks
 * use when a knob is unset.
 */
struct SinkConfig
{
    std::string trace;        ///< VIRTSIM_TRACE: Perfetto JSON path
    std::string metrics;      ///< VIRTSIM_METRICS: snapshot JSON path
    std::string flame;        ///< VIRTSIM_FLAME: folded-stack path
    std::string timeline;     ///< VIRTSIM_TIMELINE: JSON (or .csv) path
    std::string shardProfile; ///< VIRTSIM_SHARD_PROFILE: JSON path
    std::string latency;      ///< VIRTSIM_LATENCY: latency JSON path
    std::string incidents;    ///< VIRTSIM_INCIDENTS: report directory

    /** VIRTSIM_TRACE_CAPACITY: records per trace ring segment, at
     *  most 2^32; 0 keeps the sink's default. */
    std::uint64_t traceCapacity = 0;
    /** VIRTSIM_TIMELINE_HZ: simulated Hz, an integer up to 2^40;
     *  100 kHz keeps a Table V run inside the series capacity. */
    double timelineHz = 100000.0;
    /** VIRTSIM_SHARD_STATS=1: publish lane-dependent shard health
     *  into the metrics snapshot and the timeline. */
    bool shardStats = false;
    /** VIRTSIM_SLO_P99_US: threshold override for every latency
     *  objective, microseconds (at most 1e12). */
    std::optional<double> sloP99Us;
    /** VIRTSIM_SLO_MAX_VIOLATION: tolerated violation fraction
     *  override for every objective, in [0, 1]. */
    std::optional<double> sloMaxViolation;
    /** VIRTSIM_INCIDENT_WINDOW_US: incident half-window W,
     *  microseconds (at most 1e9). */
    double incidentWindowUs = 100.0;
    /** VIRTSIM_INCIDENT_CAP: captured-incident cap (at most 2^20). */
    std::uint32_t incidentCap = 16;

    /** Read every sink knob now; fatal()s on the first bad value. */
    static SinkConfig fromEnv();

    /** @return true if any knob asks for a file export. */
    bool
    exportsAnything() const
    {
        return !trace.empty() || !metrics.empty() || !flame.empty() ||
               !timeline.empty() || !shardProfile.empty() ||
               !latency.empty() || !incidents.empty();
    }
};

} // namespace virtsim

#endif // VIRTSIM_SIM_ENV_HH
