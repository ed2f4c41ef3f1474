/**
 * @file
 * The shared sink layer: SinkConfig parsing and bounds (sim/env),
 * export-path tagging and eager validation at world construction in
 * both worlds (core/sinks).
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "core/sinks.hh"
#include "core/testbed.hh"
#include "scoped_env.hh"
#include "sim/env.hh"

using namespace virtsim;

namespace {

constexpr std::array<const char *, 14> sinkKnobs = {
    "VIRTSIM_TRACE",
    "VIRTSIM_TRACE_CAPACITY",
    "VIRTSIM_METRICS",
    "VIRTSIM_FLAME",
    "VIRTSIM_TIMELINE",
    "VIRTSIM_TIMELINE_HZ",
    "VIRTSIM_SHARD_PROFILE",
    "VIRTSIM_SHARD_STATS",
    "VIRTSIM_LATENCY",
    "VIRTSIM_SLO_P99_US",
    "VIRTSIM_SLO_MAX_VIOLATION",
    "VIRTSIM_INCIDENTS",
    "VIRTSIM_INCIDENT_WINDOW_US",
    "VIRTSIM_INCIDENT_CAP",
};

/** Unsets every sink knob for the scope, restoring them after. */
class CleanSinkEnv
{
  public:
    CleanSinkEnv()
    {
        for (const char *k : sinkKnobs)
            saved.push_back(std::make_unique<ScopedEnv>(k, nullptr));
    }

  private:
    std::vector<std::unique_ptr<ScopedEnv>> saved;
};

FleetConfig
tinyFleet()
{
    FleetConfig cfg;
    cfg.nCpus = 2;
    cfg.connsPerCpu = 2;
    cfg.transactionsPerConn = 2;
    return cfg;
}

} // namespace

TEST(SinkConfig, DefaultsWhenUnset)
{
    CleanSinkEnv clean;
    const SinkConfig c = SinkConfig::fromEnv();
    EXPECT_TRUE(c.trace.empty());
    EXPECT_TRUE(c.metrics.empty());
    EXPECT_TRUE(c.flame.empty());
    EXPECT_TRUE(c.timeline.empty());
    EXPECT_TRUE(c.shardProfile.empty());
    EXPECT_TRUE(c.latency.empty());
    EXPECT_TRUE(c.incidents.empty());
    EXPECT_EQ(c.traceCapacity, 0u);
    EXPECT_DOUBLE_EQ(c.timelineHz, 100000.0);
    EXPECT_FALSE(c.shardStats);
    EXPECT_FALSE(c.sloP99Us);
    EXPECT_FALSE(c.sloMaxViolation);
    EXPECT_DOUBLE_EQ(c.incidentWindowUs, 100.0);
    EXPECT_EQ(c.incidentCap, 16u);
    EXPECT_FALSE(c.exportsAnything());
}

TEST(SinkConfig, EmptyValuesCountAsUnset)
{
    CleanSinkEnv clean;
    ScopedEnv t("VIRTSIM_TRACE", "");
    ScopedEnv hz("VIRTSIM_TIMELINE_HZ", "");
    ScopedEnv cap("VIRTSIM_INCIDENT_CAP", "");
    const SinkConfig c = SinkConfig::fromEnv();
    EXPECT_TRUE(c.trace.empty());
    EXPECT_DOUBLE_EQ(c.timelineHz, 100000.0);
    EXPECT_EQ(c.incidentCap, 16u);
    EXPECT_FALSE(c.exportsAnything());
}

TEST(SinkConfig, ParsesEveryKnob)
{
    CleanSinkEnv clean;
    ScopedEnv e0("VIRTSIM_TRACE", "t.json");
    ScopedEnv e1("VIRTSIM_TRACE_CAPACITY", "4096");
    ScopedEnv e2("VIRTSIM_METRICS", "m.json");
    ScopedEnv e3("VIRTSIM_FLAME", "f.folded");
    ScopedEnv e4("VIRTSIM_TIMELINE", "tl.csv");
    ScopedEnv e5("VIRTSIM_TIMELINE_HZ", "250000");
    ScopedEnv e6("VIRTSIM_SHARD_PROFILE", "sp.json");
    ScopedEnv e7("VIRTSIM_SHARD_STATS", "1");
    ScopedEnv e8("VIRTSIM_LATENCY", "lat.json");
    ScopedEnv e9("VIRTSIM_SLO_P99_US", "37.5");
    ScopedEnv e10("VIRTSIM_SLO_MAX_VIOLATION", "0");
    ScopedEnv e11("VIRTSIM_INCIDENTS", "inc");
    ScopedEnv e12("VIRTSIM_INCIDENT_WINDOW_US", "250.5");
    ScopedEnv e13("VIRTSIM_INCIDENT_CAP", "8");
    const SinkConfig c = SinkConfig::fromEnv();
    EXPECT_EQ(c.trace, "t.json");
    EXPECT_EQ(c.traceCapacity, 4096u);
    EXPECT_EQ(c.metrics, "m.json");
    EXPECT_EQ(c.flame, "f.folded");
    EXPECT_EQ(c.timeline, "tl.csv");
    EXPECT_DOUBLE_EQ(c.timelineHz, 250000.0);
    EXPECT_EQ(c.shardProfile, "sp.json");
    EXPECT_TRUE(c.shardStats);
    EXPECT_EQ(c.latency, "lat.json");
    ASSERT_TRUE(c.sloP99Us);
    EXPECT_DOUBLE_EQ(*c.sloP99Us, 37.5);
    ASSERT_TRUE(c.sloMaxViolation);
    EXPECT_DOUBLE_EQ(*c.sloMaxViolation, 0.0);
    EXPECT_EQ(c.incidents, "inc");
    EXPECT_DOUBLE_EQ(c.incidentWindowUs, 250.5);
    EXPECT_EQ(c.incidentCap, 8u);
    EXPECT_TRUE(c.exportsAnything());
}

TEST(SinkConfig, AcceptsEachUpperBound)
{
    CleanSinkEnv clean;
    ScopedEnv e1("VIRTSIM_TRACE_CAPACITY", "4294967296"); // 2^32
    ScopedEnv e2("VIRTSIM_TIMELINE_HZ", "1099511627776"); // 2^40
    ScopedEnv e3("VIRTSIM_SLO_P99_US", "1e12");
    ScopedEnv e4("VIRTSIM_SLO_MAX_VIOLATION", "1");
    ScopedEnv e5("VIRTSIM_INCIDENT_WINDOW_US", "1e9");
    ScopedEnv e6("VIRTSIM_INCIDENT_CAP", "1048576"); // 2^20
    const SinkConfig c = SinkConfig::fromEnv();
    EXPECT_EQ(c.traceCapacity, std::uint64_t{1} << 32);
    EXPECT_DOUBLE_EQ(c.timelineHz, 1099511627776.0);
    EXPECT_DOUBLE_EQ(*c.sloP99Us, 1e12);
    EXPECT_DOUBLE_EQ(*c.sloMaxViolation, 1.0);
    EXPECT_DOUBLE_EQ(c.incidentWindowUs, 1e9);
    EXPECT_EQ(c.incidentCap, 1u << 20);
}

TEST(SinkConfigDeath, OutOfBoundsValueNamesItsKnob)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    struct Bad
    {
        const char *knob;
        const char *value;
    };
    for (const Bad &b : {Bad{"VIRTSIM_TRACE_CAPACITY", "4294967297"},
                         Bad{"VIRTSIM_TIMELINE_HZ", "1099511627777"},
                         Bad{"VIRTSIM_SHARD_STATS", "2"},
                         Bad{"VIRTSIM_SLO_P99_US", "2e12"},
                         Bad{"VIRTSIM_SLO_MAX_VIOLATION", "1.5"},
                         Bad{"VIRTSIM_INCIDENT_WINDOW_US", "2e9"},
                         Bad{"VIRTSIM_INCIDENT_CAP", "1048577"}}) {
        CleanSinkEnv clean;
        ScopedEnv e(b.knob, b.value);
        EXPECT_EXIT((void)SinkConfig::fromEnv(),
                    testing::ExitedWithCode(1), b.knob)
            << b.knob << "=" << b.value;
    }
}

TEST(SinkConfigDeath, GarbageIsFatalEvenWhenItsSinkIsOff)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Neither VIRTSIM_INCIDENTS nor VIRTSIM_LATENCY is set: the
    // knobs tuning those sinks are still validated.
    for (const char *knob :
         {"VIRTSIM_INCIDENT_CAP", "VIRTSIM_SLO_P99_US",
          "VIRTSIM_SHARD_STATS"}) {
        CleanSinkEnv clean;
        ScopedEnv e(knob, "lots");
        EXPECT_EXIT((void)SinkConfig::fromEnv(),
                    testing::ExitedWithCode(1), knob);
    }
}

TEST(TaggedPath, InsertsTagBeforeTheExtension)
{
    EXPECT_EQ(taggedPath("out.json", "kvm_arm"), "out.kvm_arm.json");
    EXPECT_EQ(taggedPath("out", "fleet"), "out.fleet");
    EXPECT_EQ(taggedPath("a.d/out", "fleet"), "a.d/out.fleet");
    EXPECT_EQ(taggedPath("a.d/out.csv", "fleet"), "a.d/out.fleet.csv");
}

TEST(SinksEnvDeath, GarbageKnobIsFatalInBothWorlds)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    CleanSinkEnv clean;
    ScopedEnv hz("VIRTSIM_TIMELINE_HZ", "4k");
    EXPECT_EXIT(
        {
            TestbedConfig tc;
            tc.kind = SutKind::KvmArm;
            Testbed tb(tc);
        },
        testing::ExitedWithCode(1), "VIRTSIM_TIMELINE_HZ");
    EXPECT_EXIT((void)runNetperfRrFleet(tinyFleet(), 1),
                testing::ExitedWithCode(1), "VIRTSIM_TIMELINE_HZ");
}

TEST(Sinks, ConfigIsReadPerWorld)
{
    // A knob set between two worlds in one process takes effect in
    // the second: nothing caches the environment process-wide.
    CleanSinkEnv clean;
    TestbedConfig tc;
    tc.kind = SutKind::KvmArm;
    {
        Testbed tb(tc);
        EXPECT_FALSE(tb.timeline().enabled());
    }
    ScopedEnv hz("VIRTSIM_TIMELINE_HZ", "1000000");
    const std::string out = ::testing::TempDir() + "sinks_per_world.json";
    ScopedEnv path("VIRTSIM_TIMELINE", out.c_str());
    Testbed tb(tc);
    EXPECT_TRUE(tb.timeline().enabled());
    // 2.4 GHz / 1 MHz = 2400 cycles per sample.
    EXPECT_EQ(tb.timeline().period(), 2400u);
}
