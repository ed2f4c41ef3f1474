/**
 * @file
 * Fleet-scale tests: the VM-count axis (VIRTSIM_FLEET_VMS), balanced
 * shard planning, and the sparse coordinator's behavior on fleets
 * with hundreds of mostly idle lanes. The determinism bar extends
 * unchanged to fleet scale: modelled results and exports must be
 * byte-identical at every lane count and under every shard plan —
 * plans only move wall-clock, never results.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "hw/machine.hh"
#include "scoped_env.hh"

using namespace virtsim;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** A 64-VM fleet with skewed per-VM load, sized to finish fast. */
FleetConfig
skewedFleet()
{
    FleetConfig cfg;
    cfg.nVms = 64;
    cfg.transactionsPerConn = 6;
    // VM 0 is a hot spot; the rest idle along on one connection.
    cfg.connsByVm.assign(64, 1);
    cfg.connsByVm[0] = 24;
    return cfg;
}

} // namespace

TEST(FleetScale, ModelledResultsIdenticalAcrossLanesAndPlans)
{
    const FleetConfig cfg = skewedFleet();
    const FleetResult serial = runNetperfRrFleet(cfg, 1);
    std::uint64_t conns = 0;
    for (const int k : cfg.connsByVm)
        conns += static_cast<std::uint64_t>(k);
    EXPECT_EQ(serial.transactions,
              conns * static_cast<std::uint64_t>(
                          cfg.transactionsPerConn));
    for (const int lanes : {8, 64}) {
        FleetConfig balanced = cfg;
        const FleetResult b = runNetperfRrFleet(balanced, lanes);
        EXPECT_TRUE(serial.sameModelledResult(b))
            << "balanced plan, lanes=" << lanes
            << " checksum=" << b.checksum;
        FleetConfig rr = cfg;
        rr.roundRobinPlan = true;
        const FleetResult r = runNetperfRrFleet(rr, lanes);
        EXPECT_TRUE(serial.sameModelledResult(r))
            << "round-robin plan, lanes=" << lanes
            << " checksum=" << r.checksum;
    }
}

TEST(FleetScale, ExportsByteIdenticalAcrossLanesAndPlans)
{
    FleetConfig cfg = skewedFleet();
    cfg.latency = true;
    ScopedEnv m("VIRTSIM_METRICS", "/tmp/fleet_scale_m.json");
    ScopedEnv noStats("VIRTSIM_SHARD_STATS", nullptr);

    auto runOnce = [&cfg](int lanes, bool rr) {
        FleetConfig c = cfg;
        c.roundRobinPlan = rr;
        (void)runNetperfRrFleet(c, lanes);
        return slurp("/tmp/fleet_scale_m.fleet.json");
    };
    const std::string serial = runOnce(1, false);
    ASSERT_FALSE(serial.empty());
    for (const int lanes : {8, 64}) {
        EXPECT_EQ(serial, runOnce(lanes, false))
            << "balanced plan, lanes=" << lanes;
        EXPECT_EQ(serial, runOnce(lanes, true))
            << "round-robin plan, lanes=" << lanes;
    }
}

TEST(FleetScale, ShardStatsExportIsSparseAtFleetScale)
{
    // The shard counters are interned after the lanes join
    // (endParallel lifts the prepareForParallel freeze), so opting
    // in on a fleet run must not trip the late-intern panic, and
    // the export must carry the sparse rows plus the aggregates.
    FleetConfig cfg = skewedFleet();
    ScopedEnv m("VIRTSIM_METRICS", "/tmp/fleet_scale_stats.json");
    ScopedEnv stats("VIRTSIM_SHARD_STATS", "1");
    (void)runNetperfRrFleet(cfg, 64);
    const std::string json = slurp("/tmp/fleet_scale_stats.fleet.json");
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"shard.lanes_active\""), std::string::npos);
    EXPECT_NE(json.find("\"shard.lane_dispatches\""), std::string::npos);
    // Sparse publication: a skewed 64-lane fleet leaves some lanes
    // with no events at all, so not every lane gets per-lane taps.
    // The x100 ratio tap appears exactly once per published lane.
    int publishedLanes = 0;
    const std::string ratioTap = ".events_per_advance_x100\"";
    for (std::size_t at = json.find(ratioTap); at != std::string::npos;
         at = json.find(ratioTap, at + 1))
        ++publishedLanes;
    EXPECT_GT(publishedLanes, 0);
    EXPECT_LE(publishedLanes, 64);
}

TEST(FleetScale, IdleLanesAreElidedFromDispatch)
{
    // The skewed fleets' light VMs finish their transactions early
    // and leave VM 0 grinding through 24 connections alone: from then
    // on most lanes hold no events. The coordinator must pay per
    // *runnable* lane, which shows up as a mean dispatch count per
    // round far below the lane count. Counters, not wall clock, so
    // the bar holds on any host and under any load.
    FleetConfig at256;
    at256.nVms = 256;
    at256.transactionsPerConn = 8;
    at256.connsByVm.assign(256, 1);
    at256.connsByVm[0] = 24;
    for (const FleetConfig &cfg : {skewedFleet(), at256}) {
        const int lanes = cfg.nVms;
        const FleetResult r = runNetperfRrFleet(cfg, lanes);
        ASSERT_GT(r.rounds, 0u) << "lanes=" << lanes;
        const double meanDispatch =
            static_cast<double>(r.laneDispatches) /
            static_cast<double>(r.rounds);
        EXPECT_LT(meanDispatch, lanes / 2.0)
            << "mean runnable lanes per round " << meanDispatch
            << " over " << r.rounds << " rounds, lanes=" << lanes;
    }
}

TEST(FleetVmsEnv, OverridesVmCount)
{
    FleetConfig cfg;
    cfg.connsPerCpu = 2;
    cfg.transactionsPerConn = 5;
    ScopedEnv e("VIRTSIM_FLEET_VMS", "16");
    const FleetResult r = runNetperfRrFleet(cfg, 4);
    EXPECT_EQ(r.transactions, 16u * 2u * 5u);
}

TEST(FleetVmsEnvDeath, RejectsGarbageZeroAndOverflow)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    FleetConfig cfg;
    cfg.connsPerCpu = 1;
    cfg.transactionsPerConn = 1;
    {
        ScopedEnv e("VIRTSIM_FLEET_VMS", "lots");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg, 1),
                     "positive integer");
    }
    {
        ScopedEnv e("VIRTSIM_FLEET_VMS", "0");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg, 1),
                     "must be positive");
    }
    {
        // One past the documented ceiling: a fat-fingered VM count
        // must be a loud failure, not a melted host.
        ScopedEnv e("VIRTSIM_FLEET_VMS", "257");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg, 1),
                     "out of range \\(max 256\\)");
    }
    {
        ScopedEnv e("VIRTSIM_FLEET_VMS", "99999999999999999999");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg, 1),
                     "out of range");
    }
}

TEST(BalancedPlan, PacksHeaviestFirstOntoLeastLoadedLane)
{
    // LPT by hand: weights {5,1,1,1} on 2 lanes. CPU 0 (weight 5)
    // lands first on lane 0; the three singletons then all prefer
    // lane 1, whose load stays below 5 throughout.
    const MachineShardPlan p =
        MachineShardPlan::balanced(4, 2, {5, 1, 1, 1});
    ASSERT_EQ(p.cpuLane.size(), 4u);
    EXPECT_EQ(p.cpuLane[0], 0);
    EXPECT_EQ(p.cpuLane[1], 1);
    EXPECT_EQ(p.cpuLane[2], 1);
    EXPECT_EQ(p.cpuLane[3], 1);
}

TEST(BalancedPlan, DeviceWeightPreloadsLaneZero)
{
    // With the device side preloaded heavier than the whole fleet,
    // every CPU prefers lane 1.
    const MachineShardPlan p =
        MachineShardPlan::balanced(4, 2, {5, 1, 1, 1}, 9);
    ASSERT_EQ(p.cpuLane.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(p.cpuLane[static_cast<std::size_t>(i)], 1)
            << "cpu " << i;
}

TEST(BalancedPlan, UniformWeightsSpreadRoundRobinish)
{
    // 8 uniform CPUs on 4 lanes: every lane ends with exactly two,
    // and ties resolve deterministically (lowest lane first).
    const MachineShardPlan p = MachineShardPlan::balanced(8, 4);
    ASSERT_EQ(p.cpuLane.size(), 8u);
    std::vector<int> perLane(4, 0);
    for (const int ln : p.cpuLane) {
        ASSERT_GE(ln, 0);
        ASSERT_LT(ln, 4);
        ++perLane[static_cast<std::size_t>(ln)];
    }
    for (int ln = 0; ln < 4; ++ln)
        EXPECT_EQ(perLane[static_cast<std::size_t>(ln)], 2)
            << "lane " << ln;
    // Determinism: a pure function of its inputs.
    const MachineShardPlan q = MachineShardPlan::balanced(8, 4);
    EXPECT_EQ(p.cpuLane, q.cpuLane);
}
