/**
 * @file
 * Tests for the simulated-time telemetry subsystem (sim/timeline):
 * gauge sampling, change deduplication, rate gauges, the anomaly
 * watchdog, reset semantics, export determinism across sweep widths,
 * env-knob validation, and the zero-allocation guarantee of the
 * sampling paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/sweep.hh"
#include "sim/timeline.hh"

// ---------------------------------------------------------------------
// Binary-wide allocation counter (same idiom as test_probe): the
// disabled sampling path must be one predictable branch, and an
// enabled sampler in steady state must only touch its preallocated
// buffers. Counting every operator new proves both.
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
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace virtsim;

namespace {

/** Minimal JSON well-formedness checker (structure only): enough to
 *  prove the exporter emits something a real parser will accept. */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        pos = 0;
        const bool ok = value();
        skipWs();
        return ok && pos == s.size();
    }

  private:
    bool
    value()
    {
        skipWs();
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          default:
            return literal();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return false;
            ++pos;
            if (!value())
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= s.size() || s[pos] != '}')
            return false;
        ++pos;
        return true;
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= s.size() || s[pos] != ']')
            return false;
        ++pos;
        return true;
    }

    bool
    string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                ++pos;
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos;
        return true;
    }

    bool
    literal()
    {
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.')) {
            ++pos;
        }
        return pos > start;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
    }

    std::string s;
    std::size_t pos = 0;
};

/** Keep the event queue alive for `n` dummy events spaced `step`
 *  cycles apart so the sampler has something to sample across. */
void
scheduleDummies(EventQueue &eq, int n, Cycles step)
{
    for (int i = 1; i <= n; ++i)
        eq.scheduleAt(static_cast<Cycles>(i) * step, [] {});
}

} // namespace

TEST(Timeline, SamplesGaugesWithChangeDedup)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t level = 0;
    tl.addGauge("test.level", [&level] { return level; }, 3);
    tl.enable(100);

    // Level changes at 250 (to 7) and 650 (back to 0); dummy events
    // keep the queue alive to cycle 1000.
    eq.scheduleAt(250, [&level] { level = 7; });
    eq.scheduleAt(650, [&level] { level = 0; });
    scheduleDummies(eq, 10, 100);
    tl.ensureScheduled(eq);
    eq.run();

    ASSERT_EQ(tl.gaugeCount(), 1u);
    // Dedup: only value *changes* store — 0 at t=0, 7 at t=300 (first
    // aligned tick after the change), 0 at t=700.
    ASSERT_EQ(tl.sampleCount(0), 3u);
    const TimelineSample *s = tl.samplesFor(0);
    EXPECT_EQ(s[0].when, 0u);
    EXPECT_EQ(s[0].value, 0);
    EXPECT_EQ(s[1].when, 300u);
    EXPECT_EQ(s[1].value, 7);
    EXPECT_EQ(s[2].when, 700u);
    EXPECT_EQ(s[2].value, 0);
    EXPECT_EQ(tl.droppedSamples(), 0u);
    EXPECT_GE(tl.tickCount(), 10u);
}

TEST(Timeline, RateGaugeStoresPerPeriodDeltas)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t cumulative = 0;
    tl.addRateGauge("test.rate", [&cumulative] { return cumulative; });
    tl.enable(100);

    // +5 per 100-cycle period for the first 3 periods, then quiet.
    for (int i = 0; i < 3; ++i) {
        eq.scheduleAt(static_cast<Cycles>(i) * 100 + 50,
                      [&cumulative] { cumulative += 5; });
    }
    scheduleDummies(eq, 6, 100);
    tl.ensureScheduled(eq);
    eq.run();

    // First tick emits 0 (no prior reading), then 5,5,5, then 0.
    ASSERT_GE(tl.sampleCount(0), 3u);
    const TimelineSample *s = tl.samplesFor(0);
    EXPECT_EQ(s[0].value, 0);
    EXPECT_EQ(s[1].when, 100u);
    EXPECT_EQ(s[1].value, 5);
    // Dedup collapses the three consecutive 5s; next stored change is
    // the drop back to 0.
    EXPECT_EQ(s[2].value, 0);
    EXPECT_EQ(s[2].when, 400u);
}

TEST(Timeline, WatchdogFiresOnSustainedViolationOnly)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t depth = 0;
    tl.addGauge("test.depth", [&depth] { return depth; });
    tl.addRule("deep_queue", "test.depth", 10, 300);
    tl.enable(100);

    // A 200-cycle burst above threshold (under the 300-cycle minimum
    // duration) must NOT fire; a later 500-cycle plateau must.
    eq.scheduleAt(150, [&depth] { depth = 15; });
    eq.scheduleAt(350, [&depth] { depth = 0; });
    eq.scheduleAt(1050, [&depth] { depth = 12; });
    eq.scheduleAt(1550, [&depth] { depth = 0; });
    scheduleDummies(eq, 20, 100);
    tl.ensureScheduled(eq);
    eq.run();

    ASSERT_EQ(tl.anomalyCount(), 1u);
    const TimelineSampler::Anomaly &a = tl.anomalies()[0];
    EXPECT_EQ(tl.ruleName(a.rule), "deep_queue");
    EXPECT_EQ(a.begin, 1100u); // first tick at/above threshold
    EXPECT_EQ(a.peak, 12);
    EXPECT_GE(a.end, 1400u);
}

TEST(Timeline, InstantRuleFiresOnFirstOffendingSample)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t v = 0;
    tl.addGauge("test.burst", [&v] { return v; });
    tl.addRule("burst", "test.burst", 8, 0);
    tl.enable(100);

    eq.scheduleAt(250, [&v] { v = 9; });
    eq.scheduleAt(350, [&v] { v = 0; });
    scheduleDummies(eq, 5, 100);
    tl.ensureScheduled(eq);
    eq.run();

    ASSERT_EQ(tl.anomalyCount(), 1u);
    EXPECT_EQ(tl.anomalies()[0].begin, 300u);
}

TEST(Timeline, AnomalyBufferSaturationIsCountedNotSilent)
{
    // An instant rule over a gauge that oscillates every other tick
    // opens one anomaly window per excursion — far more than the
    // fixed anomaly buffer holds. The overflow must be counted in
    // anomaliesDropped() and surfaced in the JSON export, and the
    // anomaly hook must keep firing for dropped windows too (the
    // flight recorder wants every trigger, stored or not).
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t v = 0;
    tl.addGauge("test.flap", [&v] { return v; });
    tl.addRule("flap", "test.flap", 5, 0);
    std::uint64_t opens = 0, closes = 0;
    tl.setAnomalyHook(
        [&opens, &closes](Cycles, std::uint32_t, bool open) {
            if (open)
                ++opens;
            else
                ++closes;
        });
    tl.enable(100);

    constexpr std::uint64_t excursions =
        TimelineSampler::anomalyCapacity + 40;
    for (std::uint64_t i = 0; i < excursions; ++i) {
        // Above threshold for one tick at 100(2i+1)+50, back below
        // before the next: each excursion is its own window.
        eq.scheduleAt(200 * i + 150, [&v] { v = 9; });
        eq.scheduleAt(200 * i + 250, [&v] { v = 0; });
    }
    scheduleDummies(eq, 2 * excursions + 2, 100);
    tl.ensureScheduled(eq);
    eq.run();

    EXPECT_EQ(tl.anomalyCount(), TimelineSampler::anomalyCapacity);
    EXPECT_EQ(tl.anomaliesDropped(),
              excursions - TimelineSampler::anomalyCapacity);
    EXPECT_EQ(opens, excursions);
    EXPECT_EQ(closes, excursions);

    const std::string json = tl.renderJson(Frequency(2.4));
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"anomalies_dropped\":40"),
              std::string::npos);

    // A dropped window is one window, however many ticks it spans:
    // a sustained excursion past the full buffer counts once.
    tl.resetSeries();
    EXPECT_EQ(tl.anomaliesDropped(), 0u);
}

TEST(Timeline, ResetSeriesKeepsRegistrationsAndConfiguration)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t v = 1;
    tl.addGauge("test.v", [&v] { return v; });
    tl.addRule("high_v", "test.v", 100, 0);
    tl.enable(50);

    scheduleDummies(eq, 4, 50);
    tl.ensureScheduled(eq);
    eq.run();
    EXPECT_GT(tl.sampleCount(0), 0u);

    tl.resetSeries();
    EXPECT_EQ(tl.sampleCount(0), 0u);
    EXPECT_EQ(tl.anomalyCount(), 0u);
    EXPECT_EQ(tl.tickCount(), 0u);
    // Gauges, rules, and the enable/period survive.
    EXPECT_EQ(tl.gaugeCount(), 1u);
    EXPECT_EQ(tl.ruleCount(), 1u);
    EXPECT_TRUE(tl.enabled());
    EXPECT_EQ(tl.period(), 50u);

    // And sampling resumes identically on a rewound queue.
    eq.reset();
    scheduleDummies(eq, 4, 50);
    tl.ensureScheduled(eq);
    eq.run();
    ASSERT_EQ(tl.sampleCount(0), 1u);
    EXPECT_EQ(tl.samplesFor(0)[0].when, 0u);
    EXPECT_EQ(tl.samplesFor(0)[0].value, 1);
}

TEST(Timeline, DisabledSamplerNeverSchedules)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t v = 0;
    tl.addGauge("test.v", [&v] { return v; });

    scheduleDummies(eq, 3, 100);
    tl.ensureScheduled(eq); // disabled: must be a no-op
    eq.run();
    EXPECT_EQ(tl.tickCount(), 0u);
    EXPECT_EQ(tl.sampleCount(0), 0u);
}

TEST(Timeline, RenderJsonIsWellFormedAndCarriesSchema)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t v = 0;
    tl.addGauge("test.\"quoted\"", [&v] { return v; }, 2);
    tl.addRateGauge("test.rate", [&v] { return v; });
    tl.addRule("r", "test.rate", 1, 0);
    tl.enable(100);

    eq.scheduleAt(150, [&v] { v = 3; });
    scheduleDummies(eq, 4, 100);
    tl.ensureScheduled(eq);
    eq.run();

    const Frequency f(2.4);
    const std::string json = tl.renderJson(f);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"schema\":\"virtsim-timeline-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"period_cycles\":100"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"rate\""), std::string::npos);
    EXPECT_NE(json.find("\"anomaly_count\":"), std::string::npos);

    const std::string csv = tl.renderCsv(f);
    EXPECT_EQ(csv.rfind("series,track,kind,cycles,us,value\n", 0), 0u);
    EXPECT_NE(csv.find("test.rate"), std::string::npos);
}

TEST(Timeline, CounterEventsMergeIntoChromeTrace)
{
    EventQueue eq;
    TraceSink sink;
    TimelineSampler tl;
    std::int64_t v = 0;
    tl.addGauge("test.counter", [&v] { return v; });
    tl.enable(100);

    eq.scheduleAt(150, [&v] { v = 4; });
    scheduleDummies(eq, 3, 100);
    tl.ensureScheduled(eq);
    eq.run();

    std::ostringstream os;
    writeChromeTrace(os, sink, Frequency(2.4), "test", &tl);
    const std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test.counter\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Zero-allocation guarantees.
// ---------------------------------------------------------------------

TEST(TimelineFastPath, DisabledPathAllocatesNothing)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t v = 0;
    tl.addGauge("test.v", [&v] { return v; });

    const std::uint64_t before =
        g_news.load(std::memory_order_relaxed);
    for (int i = 0; i < 100000; ++i)
        tl.ensureScheduled(eq);
    const std::uint64_t after =
        g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

TEST(TimelineFastPath, EnabledSteadyStateAllocatesNothing)
{
    EventQueue eq;
    TimelineSampler tl;
    std::int64_t level = 0, cum = 0;
    tl.addGauge("test.level", [&level] { return level; });
    tl.addRateGauge("test.rate", [&cum] { return cum; });
    tl.addRule("r", "test.level", 1000, 0);
    tl.enable(10);

    auto schedule_workload = [&] {
        scheduleDummies(eq, 50, 10);
        for (int i = 0; i < 50; ++i) {
            eq.scheduleAt(static_cast<Cycles>(i) * 10 + 5,
                          [&level, &cum, i] {
                              level = i % 7;
                              cum += i;
                          });
        }
    };

    // Warm-up: the first run grows the event arena to its high-water
    // mark and stores the first samples; an identically shaped second
    // run is pure steady state and must not allocate.
    schedule_workload();
    tl.ensureScheduled(eq);
    eq.run();

    tl.resetSeries();
    eq.reset();
    level = 0;
    cum = 0;
    schedule_workload();
    const std::uint64_t before =
        g_news.load(std::memory_order_relaxed);
    tl.ensureScheduled(eq);
    eq.run();
    const std::uint64_t after =
        g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
    EXPECT_GT(tl.sampleCount(0), 1u);
}

// ---------------------------------------------------------------------
// Full-stack determinism through the Testbed.
// ---------------------------------------------------------------------

namespace {

/** One microbench workload + timeline JSON render on a fresh,
 *  directly constructed testbed. */
std::string
timelineJsonFor(SutKind kind)
{
    TestbedConfig tc;
    tc.kind = kind;
    Testbed tb(tc);
    tb.enableTimeline(1e6); // 1 MHz simulated sampling
    MicrobenchSuite suite(tb);
    suite.run(MicroOp::Hypercall, 10);
    suite.run(MicroOp::VirtualIpi, 10);
    return tb.timeline().renderJson(tb.freq());
}

} // namespace

TEST(Timeline, ExportsAreIdenticalAcrossSweepWidths)
{
    const std::vector<SutKind> kinds = {
        SutKind::KvmArm, SutKind::XenArm, SutKind::KvmX86,
        SutKind::KvmArmVhe};
    auto run_cols = [&kinds](int jobs) {
        return parallelSweepIndexed(
            kinds.size(),
            [&kinds](std::size_t i) {
                return timelineJsonFor(kinds[i]);
            },
            jobs);
    };
    const auto serial = run_cols(1);
    const auto wide = run_cols(8);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_NE(serial[i].find("\"samples\":[["),
                  std::string::npos)
            << "column " << i << " sampled nothing";
        EXPECT_EQ(serial[i], wide[i]) << "column " << i;
    }
}

TEST(Timeline, NetperfRrRunIsAnomalyFree)
{
    // The watchdog must stay quiet on a paper-config workload: the
    // Table V bench asserts this too, but catching a rule
    // misconfiguration here keeps the bench gate meaningful.
    TestbedConfig tc;
    tc.kind = SutKind::KvmArm;
    Testbed tb(tc);
    tb.enableTimeline(100000.0);
    // The default rule set is installed, so quiet means quiet.
    EXPECT_GT(tb.timeline().ruleCount(), 0u);
    runNetperfRr(tb);
    EXPECT_EQ(tb.timeline().anomalyCount(), 0u);
    EXPECT_GT(tb.timeline().tickCount(), 0u);
    // The netperf run must actually exercise the I/O gauges.
    const int rx = tb.timeline().findGauge("nic.rx_queue");
    ASSERT_GE(rx, 0);
}

// ---------------------------------------------------------------------
// Env-knob validation (satellite: fatal on garbage, never silent).
// ---------------------------------------------------------------------

namespace {

/** Scoped env override; restores the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (const char *prev = std::getenv(name))
            saved = prev;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved.empty())
            ::unsetenv(name);
        else
            ::setenv(name, saved.c_str(), 1);
    }

  private:
    const char *name;
    std::string saved;
};

} // namespace

TEST(TimelineEnv, InvalidTimelineHzIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"0", "-5", "fast", "1e6", "100x",
                            "99999999999999999999999"}) {
        ScopedEnv env("VIRTSIM_TIMELINE_HZ", bad);
        EXPECT_EXIT(
            {
                TestbedConfig tc;
                tc.kind = SutKind::KvmArm;
                Testbed tb(tc);
            },
            testing::ExitedWithCode(1), "VIRTSIM_TIMELINE_HZ")
            << "value \"" << bad << "\"";
    }
}

TEST(TimelineEnv, InvalidTraceCapacityIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"0", "-1", "lots", "4k",
                            "99999999999999999999999"}) {
        ScopedEnv env("VIRTSIM_TRACE_CAPACITY", bad);
        EXPECT_EXIT(
            {
                TestbedConfig tc;
                tc.kind = SutKind::KvmArm;
                Testbed tb(tc);
            },
            testing::ExitedWithCode(1), "VIRTSIM_TRACE_CAPACITY")
            << "value \"" << bad << "\"";
    }
}

TEST(TimelineEnv, ValidTimelineHzArmsTheSampler)
{
    ScopedEnv hz("VIRTSIM_TIMELINE_HZ", "1000000");
    ScopedEnv path("VIRTSIM_TIMELINE",
                   "/tmp/virtsim_test_timeline_env.json");
    TestbedConfig tc;
    tc.kind = SutKind::KvmArm;
    Testbed tb(tc);
    EXPECT_TRUE(tb.timeline().enabled());
    // 2.4 GHz / 1 MHz = 2400 cycles per sample.
    EXPECT_EQ(tb.timeline().period(), 2400u);
    EXPECT_GT(tb.timeline().ruleCount(), 0u);
}
