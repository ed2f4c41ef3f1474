#include "sim/shard_profile.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "sim/log.hh"

namespace virtsim {

namespace {

std::string
formatFixed(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

} // namespace

std::uint64_t
ShardProfile::busyNsTotal() const
{
    std::uint64_t n = 0;
    for (const Lane &ln : lanes)
        n += ln.busyNs;
    return n;
}

std::size_t
ShardProfile::lanesProfiled() const
{
    std::size_t n = 0;
    for (const Lane &ln : lanes) {
        if (ln.busyNs != 0 || ln.stallNs != 0 || ln.events != 0 ||
            ln.stallRounds != 0)
            ++n;
    }
    return n;
}

double
ShardProfile::busyOverWall() const
{
    if (wallNs == 0)
        return 0.0;
    return static_cast<double>(busyNsTotal()) /
           static_cast<double>(wallNs);
}

std::string
ShardProfile::toJson() const
{
    const std::size_t n = lanes.size();
    std::string out = "{\"schema\":\"virtsim-shard-profile-3\"";
    out += ",\"lanes\":" + std::to_string(n);
    out += ",\"lanes_profiled\":" + std::to_string(lanesProfiled());
    out += ",\"rounds\":" + std::to_string(rounds);
    out += ",\"parallel_rounds\":" + std::to_string(parallelRounds);
    out += ",\"wall_ns\":" + std::to_string(wallNs);
    out += ",\"busy_ns_total\":" + std::to_string(busyNsTotal());
    out += ",\"busy_over_wall\":" + formatFixed(busyOverWall());
    out += ",\"lane_detail\":[";
    // Sparse, like the coordinator itself: a lane that never ran and
    // never stalled contributes one spare-capacity row's worth of
    // nothing — on a 256-lane fleet the idle tail would dwarf the
    // signal. Rows stay in lane order and carry their lane id.
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
        const Lane &ln = lanes[i];
        if (ln.busyNs == 0 && ln.stallNs == 0 && ln.events == 0 &&
            ln.stallRounds == 0)
            continue;
        if (!first)
            out += ",";
        first = false;
        out += "{\"lane\":" + std::to_string(i);
        out += ",\"busy_ns\":" + std::to_string(ln.busyNs);
        out += ",\"wait_ns\":" + std::to_string(waitNs(i));
        out += ",\"stall_ns\":" + std::to_string(ln.stallNs);
        out += ",\"events\":" + std::to_string(ln.events);
        out += ",\"stall_rounds\":" + std::to_string(ln.stallRounds);
        out += "}";
    }
    out += "],\"critical_channels\":[";
    // Nonzero edges only, worst first; (dst, src) breaks ties so the
    // structural part of the export is deterministic even though the
    // round counts are host-timing dependent.
    struct Edge
    {
        std::uint64_t rounds;
        std::size_t dst;
        std::size_t src;
    };
    std::vector<Edge> edges;
    for (std::size_t d = 0; d < n; ++d) {
        for (std::size_t s = 0; s < n; ++s) {
            const std::uint64_t r = d * n + s < critRounds.size()
                                        ? critRounds[d * n + s]
                                        : 0;
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
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i)
            out += ",";
        const Edge &e = edges[i];
        const std::size_t flat = e.dst * n + e.src;
        out += "{\"dst\":" + std::to_string(e.dst);
        out += ",\"src\":" + std::to_string(e.src);
        out += ",\"rounds\":" + std::to_string(e.rounds);
        out += ",\"channel\":\"";
        if (flat < critChannel.size())
            out += critChannel[flat];
        out += "\"}";
    }
    out += "]}";
    return out;
}

bool
exportShardProfile(const std::string &path,
                   const ShardProfile &profile)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open shard profile file ", path);
        return false;
    }
    os << profile.toJson() << "\n";
    return os.good();
}

} // namespace virtsim
