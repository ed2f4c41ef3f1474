#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/flight.hh"
#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/shard_profile.hh"
#include "sim/timeline.hh"
#include "sim/units.hh"

namespace virtsim {

TextTable::TextTable(std::vector<std::string> headers)
    : head(std::move(headers))
{
    VIRTSIM_ASSERT(!head.empty(), "table needs headers");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    VIRTSIM_ASSERT(cells.size() == head.size(),
                   "row width ", cells.size(), " != header width ",
                   head.size());
    body.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> width(head.size());
    for (std::size_t i = 0; i < head.size(); ++i)
        width[i] = head[i].size();
    for (const auto &row : body) {
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    }

    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << "  ";
            // First column left-aligned (names), rest right-aligned.
            if (i == 0) {
                oss << row[i]
                    << std::string(width[i] - row[i].size(), ' ');
            } else {
                oss << std::string(width[i] - row[i].size(), ' ')
                    << row[i];
            }
        }
        oss << "\n";
    };
    emit(head);
    std::size_t total = head.size() > 0 ? head.size() * 2 - 2 : 0;
    for (std::size_t w : width)
        total += w;
    oss << std::string(total, '-') << "\n";
    for (const auto &row : body)
        emit(row);
    return oss.str();
}

namespace {

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
TextTable::renderCsv() const
{
    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << ",";
            oss << csvEscape(row[i]);
        }
        oss << "\n";
    };
    emit(head);
    for (const auto &row : body)
        emit(row);
    return oss.str();
}

std::string
formatCycles(double cycles)
{
    const auto v = static_cast<long long>(std::llround(cycles));
    std::string digits = std::to_string(v < 0 ? -v : v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.insert(out.begin(), ',');
        out.insert(out.begin(), *it);
        ++count;
    }
    if (v < 0)
        out.insert(out.begin(), '-');
    return out;
}

std::string
formatFixed(double value, int digits)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(digits);
    oss << value;
    return oss.str();
}

std::string
renderSparkline(const TimelineSampler &timeline, std::size_t gauge,
                std::size_t width)
{
    static const char ramp[] = " .:-=+*#%@";
    const std::uint32_t n = timeline.sampleCount(gauge);
    if (n == 0 || width == 0)
        return "";
    const TimelineSample *s = timeline.samplesFor(gauge);

    // The stored series is change-deduplicated, so it describes a
    // step function: s[k].value holds from s[k].when until s[k+1].
    const Cycles begin = s[0].when;
    const Cycles end = std::max<Cycles>(s[n - 1].when, begin + 1);
    std::int64_t maxv = 0;
    for (std::uint32_t k = 0; k < n; ++k)
        maxv = std::max(maxv, s[k].value);

    std::string out(width, ' ');
    if (maxv <= 0)
        return out;
    std::uint32_t k = 0;
    for (std::size_t b = 0; b < width; ++b) {
        const Cycles lo =
            begin + (end - begin) * b / width;
        const Cycles hi =
            begin + (end - begin) * (b + 1) / width;
        // Value entering the bucket, then any step inside it.
        while (k + 1 < n && s[k + 1].when <= lo)
            ++k;
        std::int64_t bucket = s[k].value;
        for (std::uint32_t j = k + 1; j < n && s[j].when < hi; ++j)
            bucket = std::max(bucket, s[j].value);
        if (bucket > 0) {
            const std::size_t idx = 1 +
                static_cast<std::size_t>(bucket * 8 / maxv);
            out[b] = ramp[std::min<std::size_t>(idx, 9)];
        }
    }
    return out;
}

std::string
renderTimelineSummary(const TimelineSampler &timeline,
                      const Frequency &freq,
                      const std::vector<std::string> &gauges)
{
    std::ostringstream oss;
    std::uint64_t stored = 0;
    for (std::size_t g = 0; g < timeline.gaugeCount(); ++g)
        stored += timeline.sampleCount(g);
    oss << "Timeline: " << timeline.tickCount() << " ticks @ "
        << timeline.period() << " cy, " << stored
        << " samples stored";
    if (timeline.droppedSamples() > 0)
        oss << ", " << timeline.droppedSamples() << " DROPPED";
    oss << "\n";

    std::size_t label = 0;
    for (const std::string &name : gauges)
        label = std::max(label, name.size());
    for (const std::string &name : gauges) {
        const int g = timeline.findGauge(name);
        if (g < 0)
            continue;
        std::int64_t maxv = 0;
        const TimelineSample *s = timeline.samplesFor(g);
        for (std::uint32_t k = 0; k < timeline.sampleCount(g); ++k)
            maxv = std::max(maxv, s[k].value);
        oss << "  " << name
            << std::string(label - name.size(), ' ') << " |"
            << renderSparkline(timeline, g) << "| max "
            << maxv << "\n";
    }

    if (timeline.anomalyCount() == 0) {
        oss << "Watchdog: 0 anomalies\n";
        return oss.str();
    }
    oss << "Watchdog: " << timeline.anomalyCount()
        << " ANOMALIES\n";
    for (std::uint32_t a = 0; a < timeline.anomalyCount(); ++a) {
        const TimelineSampler::Anomaly &an = timeline.anomalies()[a];
        oss << "  " << timeline.ruleName(an.rule) << ": "
            << formatFixed(freq.us(an.begin), 1) << "us - "
            << formatFixed(freq.us(an.end), 1) << "us, peak "
            << an.peak << "\n";
    }
    return oss.str();
}

std::string
renderShardSummary(const ShardProfile &profile)
{
    if (!profile.enabled())
        return "";
    const std::size_t n = profile.lanes.size();
    std::ostringstream oss;
    oss << "Shard profile: " << n << " lanes ("
        << profile.lanesProfiled() << " active), " << profile.rounds
        << " rounds (" << profile.parallelRounds << " parallel), "
        << formatFixed(
               static_cast<double>(profile.wallNs) / 1e6, 2)
        << " ms wall, busy/wall "
        << formatFixed(profile.busyOverWall(), 2) << "\n";

    TextTable t({"lane", "events", "busy ms", "wait ms", "stall ms",
                 "stall rounds"});
    // Sparse like the export: a fleet-scale kernel keeps spare
    // lanes, and 200 all-zero rows would bury the table's signal.
    for (std::size_t i = 0; i < n; ++i) {
        const ShardProfile::Lane &l = profile.lanes[i];
        if (l.busyNs == 0 && l.stallNs == 0 && l.events == 0 &&
            l.stallRounds == 0)
            continue;
        t.addRow({"lane" + std::to_string(i),
                  std::to_string(l.events),
                  formatFixed(static_cast<double>(l.busyNs) / 1e6, 2),
                  formatFixed(
                      static_cast<double>(profile.waitNs(i)) / 1e6, 2),
                  formatFixed(static_cast<double>(l.stallNs) / 1e6, 2),
                  std::to_string(l.stallRounds)});
    }
    oss << t.render();

    // Top critical channels: the in-edges whose lookahead bound a
    // stalled lane's horizon most often — ranked, worst first.
    struct Edge
    {
        std::uint64_t rounds;
        std::size_t dst, src;
    };
    std::vector<Edge> edges;
    for (std::size_t d = 0; d < n; ++d) {
        for (std::size_t s = 0; s < n; ++s) {
            const std::uint64_t r = profile.critRounds[d * n + s];
            if (r > 0)
                edges.push_back({r, d, s});
        }
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  if (a.rounds != b.rounds)
                      return a.rounds > b.rounds;
                  if (a.dst != b.dst)
                      return a.dst < b.dst;
                  return a.src < b.src;
              });
    if (edges.empty()) {
        oss << "Critical channels: none (no horizon stalls)\n";
        return oss.str();
    }
    oss << "Critical channels (stalled rounds, worst first):\n";
    const std::size_t top = std::min<std::size_t>(edges.size(), 5);
    for (std::size_t i = 0; i < top; ++i) {
        const Edge &e = edges[i];
        const std::string &name =
            profile.critChannel[e.dst * n + e.src];
        oss << "  lane" << e.src << " -> lane" << e.dst << ": "
            << e.rounds << " rounds"
            << (name.empty() ? "" : " via \"" + name + "\"") << "\n";
    }
    return oss.str();
}

std::string
renderLatencySummary(const RequestTracker &latency,
                     const Frequency &freq)
{
    constexpr LatencyPhase phases[] = {
        LatencyPhase::Rtt, LatencyPhase::ClientThink,
        LatencyPhase::WireFlight, LatencyPhase::ServerQueue,
        LatencyPhase::Service};

    TextTable t({"phase", "count", "mean us", "p50 us", "p90 us",
                 "p99 us", "p999 us", "max us"});
    for (LatencyPhase ph : phases) {
        const LatencyHistogram h = latency.aggregate(ph);
        if (h.empty())
            continue;
        t.addRow({to_string(ph), std::to_string(h.count()),
                  formatFixed(freq.us(h.sum()) /
                                  static_cast<double>(h.count()),
                              2),
                  formatFixed(freq.us(h.p50()), 2),
                  formatFixed(freq.us(h.p90()), 2),
                  formatFixed(freq.us(h.p99()), 2),
                  formatFixed(freq.us(h.p999()), 2),
                  formatFixed(freq.us(h.max()), 2)});
    }
    if (t.rows() == 0)
        return "";

    std::ostringstream oss;
    oss << "Request latency (" << latency.cpus() << " cpus, "
        << latency.totalCount(LatencyPhase::Rtt)
        << " transactions):\n"
        << t.render();
    return oss.str();
}

std::string
renderIncidentSummary(const FlightRecorder &flight,
                      const Frequency &freq)
{
    if (flight.incidentCount() == 0 && flight.incidentsDropped() == 0)
        return "";

    TextTable t({"incident", "trigger us", "window us", "records",
                 "crit path", "top blame-diff term", "sources"});
    for (std::size_t i = 0; i < flight.incidentCount(); ++i) {
        const FlightIncident &inc = flight.incident(i);
        const DiffReport diff =
            diffBlame(inc.blame, flight.referenceBlame());
        const DiffRow *top = diff.top();
        std::string topTerm = "-";
        if (top != nullptr && top->delta() != 0) {
            topTerm = top->name + " +" +
                      formatCycles(static_cast<double>(top->delta())) +
                      " cy";
        }
        std::string sources;
        for (const std::string &s : inc.sources) {
            if (!sources.empty())
                sources += ",";
            sources += s;
        }
        std::string label = "#";
        label += std::to_string(inc.seq);
        t.addRow({std::move(label),
                  formatFixed(freq.us(inc.triggerAt), 2),
                  formatFixed(freq.us(inc.begin), 2) + ".." +
                      formatFixed(freq.us(inc.end), 2) +
                      (inc.clipped ? " (clipped)" : ""),
                  std::to_string(inc.records.size()),
                  std::to_string(inc.critical.steps.size()) + " steps",
                  topTerm, sources});
    }

    std::ostringstream oss;
    oss << "Incidents: " << flight.incidentCount() << " captured";
    if (flight.incidentsDropped() > 0)
        oss << ", " << flight.incidentsDropped()
            << " dropped past the cap";
    if (flight.referenceSealed())
        oss << " (reference window [0.."
            << formatFixed(freq.us(flight.referenceEnd()), 2)
            << " us])";
    oss << "\n" << t.render();
    return oss.str();
}

std::string
formatDelta(double measured, double reference)
{
    if (reference == 0.0)
        return "n/a";
    const double pct = (measured - reference) / reference * 100.0;
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(1);
    if (pct >= 0)
        oss << "+";
    oss << pct << "%";
    return oss.str();
}

} // namespace virtsim
