#include "sim/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/log.hh"

namespace virtsim {

std::optional<std::uint64_t>
envPositiveCount(const char *name, std::uint64_t max)
{
    const char *p = std::getenv(name);
    if (p == nullptr || *p == '\0')
        return std::nullopt;
    // strtoull silently wraps negatives ("-3" parses as a huge
    // positive), so reject a sign up front.
    const char *digits = p;
    while (std::isspace(static_cast<unsigned char>(*digits)))
        ++digits;
    if (*digits == '-' || *digits == '+') {
        fatal(name, " must be a positive integer, got \"", p, "\"");
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || *end != '\0')
        fatal(name, " must be a positive integer, got \"", p, "\"");
    if (errno == ERANGE || v > max) {
        fatal(name, " out of range (max ", max, "), got \"", p,
              "\"");
    }
    if (v == 0)
        fatal(name, " must be positive, got \"", p, "\"");
    return static_cast<std::uint64_t>(v);
}

namespace {

/** Shared real-number front end: nullopt when unset/empty, the parsed
 *  value on clean decimal input, fatal() otherwise. Signs are
 *  rejected up front so "-0.5" reports as a sign error rather than a
 *  range error. */
std::optional<double>
envReal(const char *name, const char *what)
{
    const char *p = std::getenv(name);
    if (p == nullptr || *p == '\0')
        return std::nullopt;
    const char *digits = p;
    while (std::isspace(static_cast<unsigned char>(*digits)))
        ++digits;
    if (*digits == '-' || *digits == '+')
        fatal(name, " must be ", what, ", got \"", p, "\"");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || *end != '\0' || !std::isfinite(v))
        fatal(name, " must be ", what, ", got \"", p, "\"");
    return v;
}

} // namespace

std::optional<double>
envPositiveReal(const char *name, double max)
{
    const auto v = envReal(name, "a positive number");
    if (!v)
        return std::nullopt;
    if (!(*v > 0.0))
        fatal(name, " must be positive, got ", *v);
    if (*v > max)
        fatal(name, " out of range (max ", max, "), got ", *v);
    return v;
}

std::optional<double>
envUnitFraction(const char *name)
{
    const auto v = envReal(name, "a fraction in [0,1]");
    if (!v)
        return std::nullopt;
    if (!(*v >= 0.0 && *v <= 1.0))
        fatal(name, " must be a fraction in [0,1], got ", *v);
    return v;
}

namespace {

std::string
envPath(const char *name)
{
    const char *p = std::getenv(name);
    return p != nullptr ? std::string(p) : std::string();
}

} // namespace

SinkConfig
SinkConfig::fromEnv()
{
    SinkConfig c;
    c.trace = envPath("VIRTSIM_TRACE");
    c.metrics = envPath("VIRTSIM_METRICS");
    c.flame = envPath("VIRTSIM_FLAME");
    c.timeline = envPath("VIRTSIM_TIMELINE");
    c.shardProfile = envPath("VIRTSIM_SHARD_PROFILE");
    c.latency = envPath("VIRTSIM_LATENCY");
    c.incidents = envPath("VIRTSIM_INCIDENTS");
    c.traceCapacity = envPositiveCount("VIRTSIM_TRACE_CAPACITY",
                                       std::uint64_t{1} << 32)
                          .value_or(c.traceCapacity);
    if (const auto hz = envPositiveCount("VIRTSIM_TIMELINE_HZ",
                                         std::uint64_t{1} << 40))
        c.timelineHz = static_cast<double>(*hz);
    c.shardStats = envPositiveCount("VIRTSIM_SHARD_STATS", 1).has_value();
    c.sloP99Us = envPositiveReal("VIRTSIM_SLO_P99_US", 1e12);
    c.sloMaxViolation = envUnitFraction("VIRTSIM_SLO_MAX_VIOLATION");
    c.incidentWindowUs = envPositiveReal("VIRTSIM_INCIDENT_WINDOW_US", 1e9)
                             .value_or(c.incidentWindowUs);
    c.incidentCap = static_cast<std::uint32_t>(
        envPositiveCount("VIRTSIM_INCIDENT_CAP", std::uint64_t{1} << 20)
            .value_or(c.incidentCap));
    return c;
}

} // namespace virtsim
