/**
 * @file
 * Flight-recorder tests: sliding-window retention behind the barrier
 * clock, trigger capture with source merging, overwrite surfacing,
 * incident-export byte-identity across lane counts, the zero-alloc
 * disabled stamp path, and env validation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

// ---------------------------------------------------------------------
// Allocation counter (the test_latency idiom): the disabled flight
// stamp must be one predicted branch — never an allocation.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#include "core/fleet.hh"
#include "scoped_env.hh"
#include "sim/env.hh"
#include "sim/flight.hh"
#include "sim/probe.hh"

using namespace virtsim;

namespace {

TraceRecord
rec(Cycles when, TraceKind kind = TraceKind::Instant,
    std::uint16_t track = 0)
{
    static const TapId tap = internTap("test.flight.tap");
    return TraceRecord{when, 0, tap, track, kind, TraceCat::Op};
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

FleetConfig
overloadFleet()
{
    // The FleetSlo overload shape: open-loop arrivals far past the
    // per-CPU service capacity, a tight objective, 1 ms burn windows
    // — every run trips the SLO and freezes at least one incident.
    FleetConfig cfg;
    cfg.nCpus = 4;
    cfg.connsPerCpu = 8;
    cfg.transactionsPerConn = 60;
    cfg.latency = true;
    cfg.openLoop = true;
    cfg.meanInterarrivalUs = 20.0;
    SloSpec spec;
    spec.name = "rtt_p99";
    spec.thresholdCycles = 240000; // 100 us at 2.4 GHz
    spec.maxViolationFraction = 0.01;
    spec.burnWindow = 2400000; // 1 ms windows
    cfg.slos.push_back(spec);
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------

TEST(FlightRetention, EvictsOnTheBarrierClockOnly)
{
    FlightRecorder fr;
    fr.configure(/*windowHalf=*/500, /*period=*/100,
                 /*incidentCap=*/4);
    fr.enable();
    // R = 2W + 8 * period = 1800.
    EXPECT_EQ(fr.retention(), 1800u);

    for (Cycles t = 0; t < 1000; t += 100)
        fr.record(rec(t));
    ASSERT_EQ(fr.retainedRecords(), 10u);

    // A barrier tick inside the retention horizon evicts nothing...
    fr.onSample(1000);
    EXPECT_EQ(fr.retainedRecords(), 10u);

    // ...one far past it drops every record behind now - R.
    fr.onSample(3000);
    EXPECT_EQ(fr.retainedRecords(), 0u);
}

TEST(FlightRetention, OutOfOrderStampsStayUntilStale)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();

    // A young-stamped record written first blocks the tail fast
    // path; the stale records behind it must still stop counting as
    // retained once the cut passes them, and the young record itself
    // must survive.
    fr.record(rec(100000));
    const std::size_t fill = FlightRecorder::segCapacity -
                             FlightRecorder::segCapacity / 4 + 8;
    for (std::size_t i = 1; i < fill; ++i)
        fr.record(rec(10));
    ASSERT_EQ(fr.retainedRecords(), fill);

    fr.onSample(50000); // cut = 48200: everything but the young one
    EXPECT_EQ(fr.retainedRecords(), 1u);
}

TEST(FlightRetention, FullStaleSegmentMakesRoomOnNextPush)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();

    // A young record at the tail stops the barrier's tail pop at
    // once, so the segment stays full of stale records; the next push
    // must compact them away rather than overwrite the young one
    // (the oldest slot), which would lose it and flag the incident
    // around it truncated.
    fr.record(rec(100000));
    for (std::size_t i = 1; i < FlightRecorder::segCapacity; ++i)
        fr.record(rec(10));
    fr.onSample(50000); // cut = 48200
    EXPECT_EQ(fr.retainedRecords(), 1u);

    fr.record(rec(50000));
    EXPECT_EQ(fr.retainedRecords(), 2u);

    fr.trigger(100000, "watchdog.x.open");
    fr.onSample(100600);
    ASSERT_EQ(fr.incidentCount(), 1u);
    const FlightIncident &inc = fr.incident(0);
    EXPECT_FALSE(inc.truncated);
    ASSERT_EQ(inc.records.size(), 1u);
    EXPECT_EQ(inc.records[0].when, 100000u);
}

// ---------------------------------------------------------------------
// Trigger capture
// ---------------------------------------------------------------------

TEST(FlightCapture, FreezesWindowAroundTriggerAndMergesSources)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();

    fr.record(rec(1400)); // outside [1500, 2500]
    fr.record(rec(1600));
    fr.record(rec(2400));
    fr.record(rec(2600)); // outside

    fr.trigger(2000, "slo.rtt_p99.burn");
    fr.onAnomaly(2000, "slo.rtt_p99", true);
    fr.trigger(2000, "slo.rtt_p99.burn"); // duplicate: deduped

    // The window's post-trigger half has not elapsed yet.
    fr.onSample(2100);
    EXPECT_EQ(fr.incidentCount(), 0u);

    fr.onSample(2600);
    ASSERT_EQ(fr.incidentCount(), 1u);
    const FlightIncident &inc = fr.incident(0);
    EXPECT_EQ(inc.triggerAt, 2000u);
    EXPECT_EQ(inc.begin, 1500u);
    EXPECT_EQ(inc.end, 2500u);
    EXPECT_FALSE(inc.clipped);
    EXPECT_FALSE(inc.truncated);
    EXPECT_EQ(inc.records.size(), 2u);
    ASSERT_EQ(inc.sources.size(), 2u); // sorted, deduplicated
    EXPECT_EQ(inc.sources[0], "slo.rtt_p99.burn");
    EXPECT_EQ(inc.sources[1], "watchdog.slo.rtt_p99.open");

    const std::string json =
        fr.renderIncidentJson(0, Frequency(2.4), "test");
    EXPECT_NE(json.find("\"schema\":\"virtsim-incident-1\""),
              std::string::npos);
    EXPECT_NE(json.find("slo.rtt_p99.burn"), std::string::npos);
    EXPECT_NE(json.find("\"blame_diff\""), std::string::npos);
}

TEST(FlightCapture, FinalizeClipsPendingWindows)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();
    fr.record(rec(1900));
    fr.trigger(2000, "watchdog.x.open");
    fr.finalize(2200); // run ended before 2500
    ASSERT_EQ(fr.incidentCount(), 1u);
    EXPECT_TRUE(fr.incident(0).clipped);
    EXPECT_EQ(fr.incident(0).end, 2200u);
    EXPECT_EQ(fr.incident(0).records.size(), 1u);
}

TEST(FlightCapture, CapCountsDroppedTriggers)
{
    FlightRecorder fr;
    fr.configure(500, 100, /*incidentCap=*/2);
    fr.enable();
    fr.trigger(1000, "a");
    fr.trigger(2000, "b");
    fr.trigger(3000, "c"); // past the cap
    fr.trigger(3000, "d"); // merges would exceed too: dropped
    EXPECT_EQ(fr.incidentsDropped(), 2u);
    fr.finalize(4000);
    EXPECT_EQ(fr.incidentCount(), 2u);
}

TEST(FlightCapture, RingOverwriteSurfacesAsTruncated)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();
    // One segment holds segCapacity records; pushing past that with
    // in-window stamps forces overwrites which must mark the window.
    for (std::size_t i = 0; i < FlightRecorder::segCapacity + 64; ++i)
        fr.record(rec(5000));
    fr.trigger(5000, "watchdog.x.open");
    fr.onSample(5600);
    ASSERT_EQ(fr.incidentCount(), 1u);
    EXPECT_TRUE(fr.incident(0).truncated);
}

// ---------------------------------------------------------------------
// Fleet integration: determinism and export
// ---------------------------------------------------------------------

TEST(FlightFleet, IncidentReportsByteIdenticalAcrossLaneCounts)
{
    const std::string dir = ::testing::TempDir() + "flight_inc";
    const std::string file = dir + "/incident.fleet.000.json";
    ScopedEnv e("VIRTSIM_INCIDENTS", dir.c_str());
    const FleetConfig cfg = overloadFleet();

    std::remove(file.c_str());
    const FleetResult serial = runNetperfRrFleet(cfg, 1);
    const std::string ref = slurp(file);
    ASSERT_FALSE(ref.empty());
    EXPECT_NE(ref.find("\"schema\":\"virtsim-incident-1\""),
              std::string::npos);
    EXPECT_NE(ref.find("slo.rtt_p99"), std::string::npos);
    // A saturated fleet has a nonempty latency-critical chain.
    EXPECT_EQ(ref.find("\"steps\":[]"), std::string::npos);

    for (int lanes : {8, 64}) {
        std::remove(file.c_str());
        const FleetResult r = runNetperfRrFleet(cfg, lanes);
        EXPECT_TRUE(serial.sameModelledResult(r))
            << "lanes=" << lanes;
        EXPECT_EQ(slurp(file), ref) << "lanes=" << lanes;
    }
    std::remove(file.c_str());
}

// ---------------------------------------------------------------------
// Fast path
// ---------------------------------------------------------------------

TEST(FlightFastPath, DisabledStampAllocatesNothing)
{
    FlightRecorder fr; // never enabled
    const TraceRecord r = rec(123);
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 4096; ++i)
        fr.record(r);
    EXPECT_EQ(g_news.load(), before);
    EXPECT_EQ(fr.retainedRecords(), 0u);
}

TEST(FlightFastPath, EnabledStampAllocatesNothing)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();
    const TraceRecord r = rec(123);
    fr.record(r); // first touch
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 4096; ++i)
        fr.record(r);
    EXPECT_EQ(g_news.load(), before);
}

// ---------------------------------------------------------------------
// Environment validation
// ---------------------------------------------------------------------

TEST(FlightEnvDeath, RejectsGarbageWindowAndCap)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    {
        ScopedEnv e("VIRTSIM_INCIDENT_WINDOW_US", "banana");
        EXPECT_DEATH(
            (void)envPositiveReal("VIRTSIM_INCIDENT_WINDOW_US"),
            "must be a positive number");
    }
    {
        ScopedEnv e("VIRTSIM_INCIDENT_WINDOW_US", "0");
        EXPECT_DEATH(
            (void)envPositiveReal("VIRTSIM_INCIDENT_WINDOW_US"),
            "must be positive");
    }
    {
        ScopedEnv e("VIRTSIM_INCIDENT_CAP", "-1");
        EXPECT_DEATH(
            (void)envPositiveCount("VIRTSIM_INCIDENT_CAP"),
            "must be a positive integer");
    }
    // The armed fleet world reads both through the same validators:
    // garbage is fatal at construction, not at first incident.
    {
        ScopedEnv inc("VIRTSIM_INCIDENTS",
                      (::testing::TempDir() + "flight_env").c_str());
        ScopedEnv w("VIRTSIM_INCIDENT_WINDOW_US", "nope");
        FleetConfig cfg = overloadFleet();
        cfg.transactionsPerConn = 2;
        EXPECT_DEATH((void)runNetperfRrFleet(cfg, 1),
                     "VIRTSIM_INCIDENT_WINDOW_US");
    }
}

TEST(FlightEnv, ParsesCleanValues)
{
    ScopedEnv w("VIRTSIM_INCIDENT_WINDOW_US", "250.5");
    ScopedEnv c("VIRTSIM_INCIDENT_CAP", "8");
    EXPECT_EQ(envPositiveReal("VIRTSIM_INCIDENT_WINDOW_US").value(),
              250.5);
    EXPECT_EQ(envPositiveCount("VIRTSIM_INCIDENT_CAP").value(), 8u);
}
