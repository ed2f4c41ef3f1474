/**
 * @file
 * The in-process half of the virtsim benchmark (perfbench/run.py is
 * the other half). One process runs one workload through the public
 * core/ entry points and writes a JSON record of raw observations:
 * per-pass host wall and CPU seconds, set-up time, peak RSS, output
 * checks, and (paper workload) the modelled table cells. Statistics,
 * fidelity deltas and per-layer tables are computed by run.py.
 *
 * Modes:
 *   measure   warm-up pass, timed passes for --seconds, output checks
 *   setup     warm-up pass only; reports set-up time
 *   fidelity  one Table II/III/V pass; reports the modelled cells
 *   traced    untraced and span-recorded passes alternated, then the
 *             per-layer extras (Figure 4 replay, counted fleet pass,
 *             sink ablation); writes spans to <workdir>/spans.json
 *
 * The benchmark only measures from outside: it times calls into
 * public functions and reads counters those layers already expose.
 */

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/appbench.hh"
#include "core/fleet.hh"
#include "core/hypercall_breakdown.hh"
#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "core/workloads/workload.hh"
#include "sim/probe.hh"
#include "sim/sweep.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

extern char **environ;

using namespace virtsim;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Peak resident set of this address space (VmHWM). Unlike
 *  getrusage's ru_maxrss it is not inherited across exec, so the
 *  launching process's footprint does not leak into it. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

/** CPUs the process could use at launch, before pinOneCpu(). */
int launchCpus = 1;

/**
 * Count the usable CPUs into launchCpus, then bind the process, and
 * every thread it starts later, to the first of them. On a shared
 * host an idle vCPU is handed back to the hypervisor, so a barrier
 * round whose crew sleeps on other vCPUs waits for each one to be
 * rescheduled: unpinned on a shared 4-vCPU Xeon VM, fleet-sharded's
 * pass median moved between 0.26 and 1.1 s from one 20 s run to the
 * next. On one CPU the crew's hand-offs are context switches, and
 * what differs from fleet-serial is the cost of the coordinator and
 * crew themselves.
 */
void
pinOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    launchCpus = CPU_COUNT(&set);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &set))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
    }
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** FNV-1a over the modelled outputs of one pass. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Spans the benchmark records around its own calls into the
 *  layers. Kept in memory; written out once when the run ends. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;
        int pass = -1;
    };

    int
    begin(const std::string &name)
    {
        spans.push_back({name, nowNs(), 0,
                         open.empty() ? -1 : open.back(), pass});
        open.push_back(static_cast<int>(spans.size()) - 1);
        return open.back();
    }

    void
    end(int id)
    {
        spans[static_cast<std::size_t>(id)].end = nowNs();
        open.pop_back();
    }

    std::string
    toJson() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out += (i ? ",\n" : "\n");
            out += "{\"id\":" + std::to_string(i) +
                   ",\"name\":" + jsonString(s.name) +
                   ",\"start_ns\":" + std::to_string(s.start) +
                   ",\"end_ns\":" + std::to_string(s.end) +
                   ",\"parent\":" + std::to_string(s.parent) +
                   ",\"pass\":" + std::to_string(s.pass) + "}";
        }
        return out + "\n]\n";
    }

    int pass = -1;

  private:
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII span; a no-op when tracing is off. */
class Scope
{
  public:
    Scope(Tracer *t, const std::string &name)
        : tr(t), id(t ? t->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (tr)
            tr->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr;
    int id;
};

enum class Kind
{
    Paper,
    FleetSerial,
    FleetSharded,
    FleetObserved,
};

std::optional<Kind>
parseWorkload(const std::string &w)
{
    if (w == "paper")
        return Kind::Paper;
    if (w == "fleet-serial")
        return Kind::FleetSerial;
    if (w == "fleet-sharded")
        return Kind::FleetSharded;
    if (w == "fleet-observed")
        return Kind::FleetObserved;
    return std::nullopt;
}

struct Options
{
    std::string mode = "measure";
    Kind kind = Kind::Paper;
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    std::int64_t t0 = 0;
    std::string workdir;
    std::string out;
};

/** Modelled cells, keyed "table<N>/<row>/<column>". */
using Cells = std::vector<std::pair<std::string, double>>;

/** Everything one pass produced that the checks look at. */
struct PassResult
{
    std::uint64_t digest = 0;
    Cells cells;                   ///< paper only
    std::vector<AppBenchRow> fig4; ///< paper only
    FleetResult fleet;             ///< fleet only
};

// ---------------------------------------------------------------
// Workload definitions

const std::vector<SutKind> table2Kinds = {
    SutKind::KvmArm, SutKind::XenArm, SutKind::KvmX86, SutKind::XenX86};

TestbedConfig
testbedConfig(SutKind kind, std::uint64_t seed)
{
    TestbedConfig tc;
    tc.kind = kind;
    tc.seed = seed;
    return tc;
}

/** Tables II, III and V — the paper's fidelity cells. */
void
runTables(std::uint64_t seed, Tracer *tr, Digest &d, Cells &cells)
{
    {
        Scope s(tr, "core.table2");
        const auto sweep = runMicrobenchSweep(table2Kinds, 50, false);
        for (const MicroSweepColumn &col : sweep) {
            for (const MicroResult &r : col.results) {
                d.f64(r.cycles.mean());
                cells.emplace_back("table2/" + to_string(r.op) + "/" +
                                       to_string(col.kind),
                                   r.cycles.mean());
            }
        }
    }
    {
        Scope s(tr, "core.table3");
        for (SutKind k : {SutKind::KvmArm, SutKind::KvmArmVhe}) {
            TestbedLease tb = acquireTestbed(testbedConfig(k, seed));
            const HypercallBreakdown b = measureHypercallBreakdown(*tb);
            d.u64(b.hypercallCycles);
            for (const BreakdownRow &row : b.rows) {
                d.u64(row.save);
                d.u64(row.restore);
                if (k != SutKind::KvmArm)
                    continue;
                const std::string key = "table3/" + to_string(row.cls);
                cells.emplace_back(key + "/Save",
                                   static_cast<double>(row.save));
                cells.emplace_back(key + "/Restore",
                                   static_cast<double>(row.restore));
            }
        }
    }
    {
        Scope s(tr, "core.table5");
        for (SutKind k :
             {SutKind::Native, SutKind::KvmArm, SutKind::XenArm}) {
            TestbedLease tb = acquireTestbed(testbedConfig(k, seed));
            const NetperfRrResult r = runNetperfRr(*tb);
            const std::vector<std::pair<const char *, double>> rows = {
                {"Trans/s", r.transPerSec},
                {"Time/trans", r.timePerTransUs},
                {"send to recv", r.sendToRecvUs},
                {"recv to send", r.recvToSendUs},
                {"recv to VM recv", r.recvToVmRecvUs},
                {"VM recv to VM send", r.vmRecvToVmSendUs},
                {"VM send to send", r.vmSendToSendUs},
            };
            for (const auto &[name, v] : rows) {
                d.f64(v);
                cells.emplace_back(std::string("table5/") + name + "/" +
                                       to_string(k),
                                   v);
            }
        }
    }
}

void
digestFigure4(const std::vector<AppBenchRow> &rows, Digest &d)
{
    for (const AppBenchRow &row : rows) {
        d.f64(row.nativeScoreArm);
        d.f64(row.nativeScoreX86);
        for (const AppBenchCell &c : row.cells) {
            d.f64(c.score);
            d.f64(c.normalizedOverhead.value_or(-1.0));
        }
    }
}

PassResult
paperPass(std::uint64_t seed, Tracer *tr)
{
    PassResult out;
    Digest d;
    runTables(seed, tr, d, out.cells);
    {
        Scope s(tr, "core.figure4");
        AppBenchOptions opt;
        opt.seed = seed;
        out.fig4 = runFigure4(opt);
    }
    digestFigure4(out.fig4, d);
    out.digest = d.value();
    return out;
}

/** Arrival seed derived so that the default workload seed (42)
 *  yields FleetConfig's default arrival seed (0x1ee7). */
std::uint64_t
arrivalSeedFor(std::uint64_t seed)
{
    return seed ^ 42u ^ 0x1ee7u;
}

FleetConfig
fleetConfig(Kind kind, std::uint64_t seed)
{
    FleetConfig c;
    c.arrivalSeed = arrivalSeedFor(seed);
    if (kind == Kind::FleetObserved) {
        // bench_fleet_latency's overload leg: 4-CPU open-loop fleet,
        // ~2x overcommitted between 4x bursts.
        c.transactionsPerConn = 150;
        c.openLoop = true;
        c.meanInterarrivalUs = 60.0;
        c.burstRateFactor = 4.0;
    } else {
        c.nVms = 256;
        c.connsPerCpu = 4;
        c.transactionsPerConn = 400;
    }
    return c;
}

int
fleetLanes(Kind kind)
{
    return kind == Kind::FleetSharded ? std::min(4, launchCpus) : 1;
}

PassResult
fleetPass(Kind kind, std::uint64_t seed, Tracer *tr)
{
    PassResult out;
    {
        Scope s(tr, "core.fleet_run");
        out.fleet = runNetperfRrFleet(fleetConfig(kind, seed),
                                      fleetLanes(kind));
    }
    const FleetResult &r = out.fleet;
    Digest d;
    d.u64(r.finalTime);
    d.u64(r.transactions);
    d.u64(r.totalRttCycles);
    d.u64(r.checksum);
    d.u64(r.sloBreaches);
    d.u64(r.anomalies);
    out.digest = d.value();
    return out;
}

// ---------------------------------------------------------------
// Observability sinks (fleet-observed) through their env opt-ins

/** Trace ring size pinned while sinks are armed (records). */
constexpr std::size_t traceRingRecords = 32768;

const std::vector<std::string> sinkNames = {
    "trace", "metrics", "flame", "timeline", "latency", "incidents"};

void
clearVirtsimEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("VIRTSIM_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

/** Arm the named sinks (all of them when `only` is empty) with
 *  exports under dir; disarm the rest. */
void
armSinks(const std::string &dir, const std::vector<std::string> &only)
{
    struct Sink
    {
        const char *name;
        const char *env;
        const char *file;
    };
    static const Sink sinks[] = {
        {"trace", "VIRTSIM_TRACE", "trace.json"},
        {"metrics", "VIRTSIM_METRICS", "metrics.json"},
        {"flame", "VIRTSIM_FLAME", "flame.txt"},
        {"timeline", "VIRTSIM_TIMELINE", "timeline.json"},
        {"latency", "VIRTSIM_LATENCY", "latency.json"},
        {"incidents", "VIRTSIM_INCIDENTS", "incidents"},
    };
    // The ring size is pinned (equal to TraceSink's default) so the
    // kept fraction of trace records is computable from the drop
    // count alone.
    setenv("VIRTSIM_TRACE_CAPACITY",
           std::to_string(traceRingRecords).c_str(), 1);
    for (const Sink &s : sinks) {
        bool on = only.empty();
        for (const std::string &o : only)
            on = on || o == s.name;
        if (on)
            setenv(s.env, (dir + "/" + s.file).c_str(), 1);
        else
            unsetenv(s.env);
    }
}

void
disarmSinks()
{
    for (const char *e :
         {"VIRTSIM_TRACE", "VIRTSIM_METRICS", "VIRTSIM_FLAME",
          "VIRTSIM_TIMELINE", "VIRTSIM_LATENCY", "VIRTSIM_INCIDENTS",
          "VIRTSIM_TRACE_CAPACITY"})
        unsetenv(e);
}

void
resetDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** True when some incident report under dir names slo.rtt_p99. */
bool
incidentNamesSloRule(const std::string &dir)
{
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        const std::string body = slurp(de.path());
        if (body.find("\"schema\":\"virtsim-incident-1\"") !=
                std::string::npos &&
            body.find("slo.rtt_p99") != std::string::npos)
            return true;
    }
    return false;
}

// ---------------------------------------------------------------
// Checks

class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
            std::cerr << "check failed: " << what << "\n";
        }
    }

    std::string
    toJson() const
    {
        std::string out = "{\"attempted\":" + std::to_string(attempted) +
                          ",\"failed\":" + std::to_string(failed) +
                          ",\"failures\":[";
        for (std::size_t i = 0; i < failures.size(); ++i)
            out += (i ? "," : "") + jsonString(failures[i]);
        return out + "]}";
    }

  private:
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
};

bool
sameModelledFleet(const FleetResult &a, const FleetResult &b)
{
    // Sink-independent quantities only: SLO breaches and anomalies
    // are zero by construction while latency tracking is off.
    return a.finalTime == b.finalTime &&
           a.transactions == b.transactions &&
           a.totalRttCycles == b.totalRttCycles &&
           a.checksum == b.checksum;
}

// ---------------------------------------------------------------
// Record

struct PassSample
{
    double wall = 0;
    double cpu = 0;
    bool traced = false;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t sweepTasks = 0;
    std::uint64_t workerWakes = 0;
    FleetResult fleet;
};

class Runner
{
  public:
    explicit Runner(const Options &o)
        : opt(o), obsDir(o.workdir + "/obs")
    {
    }

    PassResult
    pass(Tracer *tr)
    {
        if (opt.kind == Kind::Paper)
            return paperPass(opt.seed, tr);
        return fleetPass(opt.kind, opt.seed, tr);
    }

    /** One timed pass; checks its digest against the first one. */
    void
    timedPass(Tracer *tr)
    {
        PassSample s;
        s.traced = tr != nullptr;
        const TestbedCacheStats c0 = testbedCacheStats();
        const SweepPoolStats p0 = sweepPoolStats();
        const double cpu0 = cpuSeconds();
        const std::int64_t w0 = nowNs();
        PassResult r;
        {
            Scope span(tr, "bench.pass");
            r = pass(tr);
        }
        s.wall = static_cast<double>(nowNs() - w0) * 1e-9;
        s.cpu = cpuSeconds() - cpu0;
        const TestbedCacheStats c1 = testbedCacheStats();
        const SweepPoolStats p1 = sweepPoolStats();
        s.cacheHits = c1.hits - c0.hits;
        s.cacheMisses = c1.misses - c0.misses;
        s.sweepTasks = p1.tasksExecuted - p0.tasksExecuted;
        s.workerWakes = p1.workerWakes - p0.workerWakes;
        s.fleet = r.fleet;
        samples.push_back(s);
        if (!first)
            first = r;
        else
            checks.expect(r.digest == first->digest,
                          "pass " + std::to_string(samples.size()) +
                              " modelled outputs differ from pass 1");
    }

    /** Arm fleet-observed's sinks, then run the untimed warm-up. */
    void
    warmUp()
    {
        if (opt.kind == Kind::FleetObserved) {
            resetDir(obsDir);
            armSinks(obsDir, {});
        }
        pass(nullptr);
        setupS = static_cast<double>(nowNs() - opt.t0) * 1e-9;
    }

    std::string
    samplesJson() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const PassSample &s = samples[i];
            out += (i ? ",\n" : "\n");
            out += "{\"wall_s\":" + jsonNumber(s.wall) +
                   ",\"cpu_s\":" + jsonNumber(s.cpu) +
                   ",\"traced\":" + (s.traced ? "true" : "false") +
                   ",\"testbed_cache_hits\":" +
                   std::to_string(s.cacheHits) +
                   ",\"testbed_cache_misses\":" +
                   std::to_string(s.cacheMisses) +
                   ",\"sweep_tasks\":" + std::to_string(s.sweepTasks) +
                   ",\"sweep_worker_wakes\":" +
                   std::to_string(s.workerWakes) +
                   ",\"shard_rounds\":" +
                   std::to_string(s.fleet.rounds) +
                   ",\"shard_parallel_rounds\":" +
                   std::to_string(s.fleet.parallelRounds) +
                   ",\"shard_lane_dispatches\":" +
                   std::to_string(s.fleet.laneDispatches) + "}";
        }
        return out + "\n]";
    }

    const Options &opt;
    const std::string obsDir; ///< fleet-observed export directory
    Checks checks;
    std::vector<PassSample> samples;
    std::optional<PassResult> first;
    double setupS = 0;
};

std::string
cellsJson(const Cells &cells)
{
    std::string out = "{";
    for (std::size_t i = 0; i < cells.size(); ++i)
        out += (i ? "," : "") + jsonString(cells[i].first) + ":" +
               jsonNumber(cells[i].second);
    return out + "}";
}

std::string
hostJson(int lanes)
{
    return std::string("{\"compiler\":") + jsonString(PERFBENCH_COMPILER) +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"lanes\":" + std::to_string(lanes) + "}";
}

/** Run the timed passes until --seconds have elapsed (at least 3). */
void
timedLoop(Runner &run, bool alternateTraced, Tracer *tr)
{
    const std::int64_t until =
        nowNs() + static_cast<std::int64_t>(run.opt.seconds * 1e9);
    int n = 0;
    while (n < 3 || nowNs() < until) {
        const bool traced = alternateTraced && (n % 2 == 1);
        if (tr)
            tr->pass = traced ? n : -1;
        run.timedPass(traced ? tr : nullptr);
        ++n;
    }
}

// ---------------------------------------------------------------
// Modes

int
modeMeasure(const Options &opt, std::ostream &os)
{
    Runner run(opt);
    run.warmUp();
    timedLoop(run, false, nullptr);
    const double rss = peakRssMb();

    // Post-pass checks, outside the timed region.
    if (opt.kind == Kind::FleetSharded) {
        const FleetResult serial =
            runNetperfRrFleet(fleetConfig(opt.kind, opt.seed), 1);
        run.checks.expect(
            serial.sameModelledResult(run.first->fleet),
            "fleet-sharded differs from the same world at 1 lane");
    }
    if (opt.kind == Kind::FleetObserved) {
        resetDir(run.obsDir);
        const PassResult r = run.pass(nullptr);
        run.checks.expect(
            r.fleet.sloBreaches >= 1 && incidentNamesSloRule(
                                            run.obsDir + "/incidents"),
            "overload leg recorded no SLO breach or no incident "
            "naming slo.rtt_p99");
        disarmSinks();
        const PassResult off = run.pass(nullptr);
        run.checks.expect(
            sameModelledFleet(off.fleet, run.first->fleet),
            "fleet-observed modelled result changes with sinks off");
    }

    os << "{\"mode\":\"measure\",\"workload\":" << jsonString(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"setup_s\":"
       << jsonNumber(run.setupS) << ",\"peak_rss_mb\":"
       << jsonNumber(rss) << ",\"host\":"
       << hostJson(opt.kind == Kind::Paper ? 0 : fleetLanes(opt.kind))
       << ",\"digest\":" << jsonString(std::to_string(run.first->digest))
       << ",\"checks\":" << run.checks.toJson()
       << ",\"cells\":" << cellsJson(run.first->cells)
       << ",\"passes\":" << run.samplesJson() << "}\n";
    return 0;
}

int
modeSetup(const Options &opt, std::ostream &os)
{
    Runner run(opt);
    run.warmUp();
    os << "{\"mode\":\"setup\",\"setup_s\":" << jsonNumber(run.setupS)
       << "}\n";
    return 0;
}

int
modeFidelity(const Options &opt, std::ostream &os)
{
    Digest d;
    Cells cells;
    runTables(opt.seed, nullptr, d, cells);
    os << "{\"mode\":\"fidelity\",\"cells\":" << cellsJson(cells)
       << "}\n";
    return 0;
}

/** Counters the paper replay collects from the testbeds it holds. */
struct ReplayCounters
{
    std::map<std::string, std::uint64_t> stats; ///< StatRegistry
    std::map<std::string, std::uint64_t> vmCounters; ///< domain/name
    std::map<std::string, std::uint64_t> vmHistCounts;
    std::uint64_t events = 0;

    void
    absorb(Testbed &tb, const EventKernelProfiler &prof)
    {
        for (const auto &[name, c] : tb.machine().stats().allCounters())
            stats[name] += c.value();
        const MetricsSnapshot snap = tb.metrics().snapshot();
        for (const auto &r : snap.counters)
            vmCounters[r.domain + "/" + r.name] += r.value;
        for (const auto &r : snap.histograms)
            vmHistCounts[r.domain + "/" + r.name] += r.count;
        for (std::size_t i = 0; i <= internedTapCount(); ++i) {
            if (const HistogramStat *h = prof.histogram(
                    TapId::fromRaw(static_cast<std::uint32_t>(i))))
                events += h->count();
        }
    }

    static std::string
    mapJson(const std::map<std::string, std::uint64_t> &m)
    {
        std::string out = "{";
        bool firstKey = true;
        for (const auto &[k, v] : m) {
            out += (firstKey ? "" : ",") + jsonString(k) + ":" +
                   std::to_string(v);
            firstKey = false;
        }
        return out + "}";
    }
};

/**
 * Figure 4 cell by cell through acquireTestbed + Workload::run, as
 * runAppBenchRow does it, with spans around both calls and a
 * dispatch profiler on each testbed's queue. The scores must equal
 * runFigure4's.
 */
bool
replayFigure4(std::uint64_t seed, const std::vector<AppBenchRow> &ref,
              Tracer &tr, ReplayCounters &rc)
{
    AppBenchOptions opt;
    const auto suite = figure4Workloads();
    bool same = suite.size() == ref.size();
    auto runCell = [&](Workload &w, SutKind k) {
        std::optional<TestbedLease> tb;
        {
            Scope s(&tr, "core.testbed_acquire");
            tb.emplace(acquireTestbed(testbedConfig(k, seed)));
        }
        EventKernelProfiler prof;
        (*tb)->queue().setProfiler(&prof);
        double score = 0;
        {
            Scope s(&tr, "core.workload_run");
            score = w.run(**tb);
        }
        (*tb)->queue().setProfiler(nullptr);
        rc.absorb(**tb, prof);
        return score;
    };
    const int top = tr.begin("bench.figure4_replay");
    for (std::size_t i = 0; same && i < suite.size(); ++i) {
        Workload &w = *suite[i];
        const AppBenchRow &row = ref[i];
        const double arm = runCell(w, SutKind::Native);
        const double x86 = runCell(w, SutKind::NativeX86);
        same = same && arm == row.nativeScoreArm &&
               x86 == row.nativeScoreX86 &&
               row.cells.size() == opt.kinds.size();
        for (std::size_t j = 0; same && j < opt.kinds.size(); ++j) {
            const SutKind k = opt.kinds[j];
            const AppBenchCell &cell = row.cells[j];
            if (k == SutKind::XenX86 && opt.dom0MellanoxBug &&
                w.triggersDom0Bug()) {
                same = !cell.normalizedOverhead.has_value();
                continue;
            }
            const double score = runCell(w, k);
            const double native =
                archOf(k) == Arch::Arm ? arm : x86;
            same = cell.score == score &&
                   cell.normalizedOverhead == native / score;
        }
    }
    tr.end(top);
    return same;
}

int
modeTraced(const Options &opt, std::ostream &os)
{
    Runner run(opt);
    Tracer tr;
    const std::string &obsDir = run.obsDir;
    const std::string countDir = opt.workdir + "/counted";
    run.warmUp();
    timedLoop(run, true, &tr);

    std::string extras;
    tr.pass = -1;
    if (opt.kind == Kind::Paper) {
        ReplayCounters rc;
        run.checks.expect(
            replayFigure4(opt.seed, run.first->fig4, tr, rc),
            "traced Figure 4 replay differs from runFigure4");
        extras = ",\"stat_counters\":" + ReplayCounters::mapJson(rc.stats) +
                 ",\"metric_counters\":" +
                 ReplayCounters::mapJson(rc.vmCounters) +
                 ",\"metric_histogram_counts\":" +
                 ReplayCounters::mapJson(rc.vmHistCounts) +
                 ",\"events\":" + std::to_string(rc.events);
    } else {
        // One counted pass: the metrics export (counters) and the
        // shard profile (lane events, busy/stall/wait).
        resetDir(countDir);
        if (opt.kind == Kind::FleetObserved)
            resetDir(obsDir);
        else
            setenv("VIRTSIM_METRICS", (countDir + "/metrics.json").c_str(),
                   1);
        setenv("VIRTSIM_SHARD_PROFILE",
               (countDir + "/shard_profile.json").c_str(), 1);
        {
            Scope s(&tr, "bench.counted_pass");
            const PassResult r = run.pass(nullptr);
            run.checks.expect(r.digest == run.first->digest,
                              "counted pass modelled outputs differ");
        }
        unsetenv("VIRTSIM_SHARD_PROFILE");
        const std::string metrics =
            (opt.kind == Kind::FleetObserved ? obsDir : countDir) +
            "/metrics.fleet.json";
        extras = ",\"metrics_export\":" + jsonString(metrics) +
                 ",\"shard_profile\":" +
                 jsonString(countDir + "/shard_profile.fleet.json") +
                 ",\"obs_dir\":" + jsonString(obsDir) +
                 ",\"trace_ring_records\":" +
                 std::to_string(traceRingRecords);
        if (opt.kind == Kind::FleetObserved) {
            run.checks.expect(
                incidentNamesSloRule(obsDir + "/incidents"),
                "counted pass wrote no incident naming slo.rtt_p99");
            // Sink ablation from outside: every sink alone, and none,
            // in interleaved rounds; exports go to a scratch dir so
            // the counted pass's exports stay for run.py to read.
            const std::string abDir = opt.workdir + "/ablation";
            std::vector<std::string> configs = {"off"};
            configs.insert(configs.end(), sinkNames.begin(),
                           sinkNames.end());
            for (int round = 0; round < 3; ++round) {
                for (const std::string &c : configs) {
                    resetDir(abDir);
                    if (c == "off")
                        disarmSinks();
                    else
                        armSinks(abDir, {c});
                    tr.pass = round;
                    Scope s(&tr, "ablation." + c);
                    run.pass(nullptr);
                }
            }
            disarmSinks();
            tr.pass = -1;
        }
    }

    {
        std::ofstream sf(opt.workdir + "/spans.json");
        sf << tr.toJson();
    }
    os << "{\"mode\":\"traced\",\"workload\":" << jsonString(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"setup_s\":"
       << jsonNumber(run.setupS) << ",\"host\":"
       << hostJson(opt.kind == Kind::Paper ? 0 : fleetLanes(opt.kind))
       << ",\"checks\":" << run.checks.toJson()
       << ",\"spans\":" << jsonString(opt.workdir + "/spans.json")
       << extras << ",\"passes\":" << run.samplesJson() << "}\n";
    return 0;
}

int
usage(const char *why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --mode "
                 "measure|setup|fidelity|traced --workload W --seed N "
                 "--seconds S --t0-ns T --workdir DIR --out FILE\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.t0 = nowNs();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        try {
            if (k == "--mode")
                opt.mode = v;
            else if (k == "--workload")
                opt.workload = v;
            else if (k == "--seed")
                opt.seed = std::stoull(v);
            else if (k == "--seconds")
                opt.seconds = std::stod(v);
            else if (k == "--t0-ns")
                opt.t0 = std::stoll(v);
            else if (k == "--workdir")
                opt.workdir = v;
            else if (k == "--out")
                opt.out = v;
            else
                return usage(("unknown option " + k).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + k).c_str());
        }
    }
    if (argc % 2 != 1)
        return usage("options come in pairs");
    const auto kind = parseWorkload(opt.workload);
    if (!kind)
        return usage("unknown workload");
    if (opt.workdir.empty() || opt.out.empty())
        return usage("--workdir and --out are required");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");
    opt.kind = *kind;

    // The benchmark owns the simulator's configuration: nothing from
    // the caller's environment leaks in. The paper workload runs its
    // sweeps serially.
    clearVirtsimEnv();
    pinOneCpu();
    if (opt.kind == Kind::Paper)
        setenv("VIRTSIM_JOBS", "1", 1);
    fs::create_directories(opt.workdir);

    std::ostringstream os;
    int rc = 0;
    if (opt.mode == "measure")
        rc = modeMeasure(opt, os);
    else if (opt.mode == "setup")
        rc = modeSetup(opt, os);
    else if (opt.mode == "fidelity")
        rc = modeFidelity(opt, os);
    else if (opt.mode == "traced")
        rc = modeTraced(opt, os);
    else
        return usage("unknown mode");
    std::ofstream out(opt.out);
    out << os.str();
    return out ? rc : 1;
}
