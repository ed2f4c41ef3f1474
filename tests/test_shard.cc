/**
 * @file
 * Tests for the sharded event kernel: conservative-lookahead rounds
 * must produce byte-identical modelled results at every lane count,
 * channels must enforce their declared latencies, the VIRTSIM_SHARDS
 * knob must validate, sharded runs inside sweep workers must
 * serialize, and the shard health telemetry must publish.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/appbench.hh"
#include "core/fleet.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "scoped_env.hh"
#include "sim/channel.hh"
#include "sim/probe.hh"
#include "sim/shard.hh"
#include "sim/sweep.hh"
#include "sim/timeline.hh"

using namespace virtsim;

namespace {

FleetConfig
smallFleet()
{
    FleetConfig cfg;
    cfg.nCpus = 4;
    cfg.connsPerCpu = 8;
    cfg.transactionsPerConn = 40;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

TEST(FleetDeterminism, ByteIdenticalAcrossLaneCounts)
{
    const FleetConfig cfg = smallFleet();
    const FleetResult serial = runNetperfRrFleet(cfg, 1);
    EXPECT_EQ(serial.transactions,
              static_cast<std::uint64_t>(cfg.nCpus) *
                  cfg.connsPerCpu * cfg.transactionsPerConn);
    EXPECT_GT(serial.finalTime, 0u);
    EXPECT_GT(serial.totalRttCycles, 0u);
    for (int lanes : {2, 3, 4, 8}) {
        const FleetResult r = runNetperfRrFleet(cfg, lanes);
        EXPECT_TRUE(serial.sameModelledResult(r))
            << "lanes=" << lanes << " final=" << r.finalTime
            << " tx=" << r.transactions
            << " checksum=" << r.checksum;
    }
}

TEST(FleetDeterminism, ParallelRoundsActuallyHappen)
{
    const FleetConfig cfg = smallFleet();
    EXPECT_EQ(runNetperfRrFleet(cfg, 1).parallelRounds, 0u);
    // Per-CPU lanes are genuinely decoupled by the wire lookahead, so
    // a multi-lane run must actually use the parallel crew path (the
    // determinism test above is meaningless if it silently ran
    // serial rounds).
    EXPECT_GT(runNetperfRrFleet(cfg, 4).parallelRounds, 0u);
}

TEST(ShardChannelDeath, SendViolatingLookaheadDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            ShardedEventKernel kern(2);
            kern.assignShard(deviceShard, 0);
            kern.assignShard(cpuShard(0), 1);
            ShardChannel &ch = kern.channel("t.req", deviceShard,
                                            cpuShard(0), 100);
            // Only lane 0 is active, so the round executes on this
            // thread; the send promises an arrival earlier than the
            // declared lookahead permits.
            kern.lane(0).scheduleAt(
                50, [&ch] { ch.send(149, [] {}); });
            kern.run();
        },
        "violates declared lookahead");
}

TEST(ShardChannelDeath, CrossLaneZeroLookaheadDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            ShardedEventKernel kern(2);
            kern.assignShard(deviceShard, 0);
            kern.assignShard(cpuShard(0), 1);
            kern.channel("t.zero", deviceShard, cpuShard(0), 0);
        },
        "needs latency");
}

TEST(ShardChannel, RedeclarationReusesAndTightens)
{
    ShardedEventKernel kern(2);
    kern.assignShard(deviceShard, 0);
    kern.assignShard(cpuShard(0), 1);
    ShardChannel &a = kern.channel("t.req", deviceShard,
                                   cpuShard(0), 100);
    EXPECT_EQ(a.lookahead(), 100u);
    // A testbed reset rebuilds its world on the same kernel; the
    // redeclaration must reuse the channel (not grow the table) and
    // keep the tighter latency.
    ShardChannel &b = kern.channel("t.req", deviceShard,
                                   cpuShard(0), 80);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.lookahead(), 80u);
    ShardChannel &c = kern.channel("t.req", deviceShard,
                                   cpuShard(0), 200);
    EXPECT_EQ(&a, &c);
    EXPECT_EQ(a.lookahead(), 80u);
}

TEST(ShardChannel, RedeclarationFollowsNewShardPlan)
{
    ShardedEventKernel kern(2);
    kern.assignShard(deviceShard, 0);
    kern.assignShard(cpuShard(0), 1);
    ShardChannel &a = kern.channel("t.req", deviceShard,
                                   cpuShard(0), 100);
    EXPECT_TRUE(a.crossLane());
    EXPECT_EQ(a.dstLane(), 1);
    // A harness re-planning its shards before rebuilding the world
    // must see sends routed by the current plan; a redeclaration that
    // kept the stale lane would silently misroute every message.
    kern.assignShard(cpuShard(0), 0);
    ShardChannel &b = kern.channel("t.req", deviceShard,
                                   cpuShard(0), 100);
    EXPECT_EQ(&a, &b);
    EXPECT_FALSE(a.crossLane());
    EXPECT_EQ(a.dstLane(), 0);
}

TEST(ShardHorizon, EmptyLaneStillBoundsDownstreamLanes)
{
    // Regression: a lane with an empty queue can still be woken by an
    // inbound message and then send (request/response relays, an idle
    // CPU woken by an injected IRQ). The horizon must propagate its
    // earliest possible receive time to the lanes downstream of it;
    // treating it as unconstraining lets a far-ahead lane drain its
    // whole queue and then receive the relayed message in its own
    // past.
    ShardedEventKernel kern(3);
    kern.assignShard(0, 0);
    kern.assignShard(1, 1);
    kern.assignShard(2, 2);
    ShardChannel &ab = kern.channel("t.ab", 0, 1, 100);
    ShardChannel &bc = kern.channel("t.bc", 1, 2, 100);

    // Lane 2: one far-future local event. Lane 1: empty until the
    // relay arrives. Lane 0: the origin of the chain.
    std::vector<Cycles> laneCOrder;
    int relayed = 0;
    kern.lane(2).scheduleAt(10000, [&laneCOrder] {
        laneCOrder.push_back(10000);
    });
    kern.lane(0).scheduleAt(10, [&] {
        ab.send(110, [&] {
            ++relayed;
            bc.send(210, [&laneCOrder] {
                laneCOrder.push_back(210);
            });
        });
    });
    kern.run();
    EXPECT_EQ(relayed, 1);
    ASSERT_EQ(laneCOrder.size(), 2u);
    // The relayed message (t=210) must execute before the far-future
    // local event, exactly as on the serial kernel.
    EXPECT_EQ(laneCOrder[0], 210u);
    EXPECT_EQ(laneCOrder[1], 10000u);
}

TEST(ShardSparseLbts, MatchesSerialOnRandomChannelGraphs)
{
    // Differential check of the coordinator: on randomized channel
    // graphs and message cascades, the worklist LBTS with idle-lane
    // elision at N lanes must reproduce the 1-lane kernel exactly —
    // every shard's firing log and the final clock. The N-lane run
    // also arms the per-round horizon cross-check, so every
    // intermediate round's bounds and targets are asserted equal to
    // the brute-force fixed point, not just the end state.
    for (const std::uint64_t seed :
         {1ull, 7ull, 42ull, 1337ull, 0xdeadbeefull}) {
        auto runOnce = [seed](bool serial) {
            std::mt19937_64 rng(seed);
            const int n = 3 + static_cast<int>(rng() % 6); // 3..8
            ShardedEventKernel kern(serial ? 1 : n);
            if (!serial)
                kern.enableHorizonCrossCheck();
            for (int i = 0; i < n; ++i)
                kern.assignShard(i, serial ? 0 : i);
            // Random sparse digraph between shards: ~1/3 of the
            // ordered pairs get a channel, lookaheads in [50, 550).
            std::vector<std::vector<ShardChannel *>> out(
                static_cast<std::size_t>(n));
            for (int a = 0; a < n; ++a) {
                for (int b = 0; b < n; ++b) {
                    if (a == b || rng() % 100 >= 35)
                        continue;
                    const Cycles look = 50 + rng() % 500;
                    out[a].push_back(&kern.channel(
                        "t." + std::to_string(a) + "." +
                            std::to_string(b),
                        a, b, look));
                }
            }
            // Workload: every firing records its time under its
            // shard (every lane is 0 in the serial run, so the shard
            // is the key); cascades are pre-drawn at construction so
            // both runs build the byte-identical event population.
            std::vector<std::vector<Cycles>> log(
                static_cast<std::size_t>(n));
            std::function<std::function<void()>(int, Cycles, int)>
                makeFire = [&](int shard, Cycles t,
                               int depth) -> std::function<void()> {
                ShardChannel *ch = nullptr;
                Cycles arrival = 0;
                std::function<void()> next;
                auto &outs = out[static_cast<std::size_t>(shard)];
                if (depth > 0 && !outs.empty() && rng() % 100 < 70) {
                    ch = outs[rng() % outs.size()];
                    arrival = t + ch->lookahead() + rng() % 400;
                    next = makeFire(ch->dstShard(), arrival, depth - 1);
                }
                return [&log, shard, t, ch, arrival,
                        next = std::move(next)] {
                    log[static_cast<std::size_t>(shard)].push_back(t);
                    if (ch)
                        ch->send(arrival, next);
                };
            };
            for (int i = 0; i < n; ++i) {
                if (i != 0 && rng() % 100 >= 80)
                    continue; // leave some lanes idle (elision path)
                const int roots = 2 + static_cast<int>(rng() % 4);
                for (int r = 0; r < roots; ++r) {
                    const Cycles t = 10 + rng() % 5000;
                    kern.lane(kern.laneOf(i))
                        .scheduleAt(t, makeFire(i, t, 3));
                }
            }
            kern.run();
            return std::pair(std::move(log), kern.now());
        };
        const auto [serialLog, serialNow] = runOnce(true);
        const auto [laneLog, laneNow] = runOnce(false);
        EXPECT_EQ(serialLog, laneLog) << "seed=" << seed;
        EXPECT_EQ(serialNow, laneNow) << "seed=" << seed;
    }
}

TEST(ShardChannelDeath, SameLaneSendViolatingLookaheadDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            // Both endpoints on the single lane: the send takes the
            // plain scheduleAt path, but the declared latency is
            // still a contract — a violation must fail in the default
            // serial configuration, not only once the endpoints land
            // on different lanes.
            ShardedEventKernel kern(1);
            ShardChannel &ch = kern.channel("t.req", deviceShard,
                                            deviceShard, 100);
            kern.lane(0).scheduleAt(
                50, [&ch] { ch.send(149, [] {}); });
            kern.run();
        },
        "violates declared lookahead");
}

TEST(ShardChannelDeath, RedeclarationWithNewEndpointsDies)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            ShardedEventKernel kern(2);
            kern.assignShard(deviceShard, 0);
            kern.assignShard(cpuShard(0), 1);
            kern.channel("t.req", deviceShard, cpuShard(0), 100);
            kern.channel("t.req", cpuShard(0), deviceShard, 100);
        },
        "redeclared with different endpoints");
}

TEST(ShardLanesEnv, DefaultsAndParses)
{
    {
        ScopedEnv e("VIRTSIM_SHARDS", nullptr);
        EXPECT_EQ(shardLanes(), 1);
    }
    {
        ScopedEnv e("VIRTSIM_SHARDS", "4");
        EXPECT_EQ(shardLanes(), 4);
    }
}

TEST(ShardLanesEnvDeath, RejectsZeroAndGarbage)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    {
        ScopedEnv e("VIRTSIM_SHARDS", "0");
        EXPECT_DEATH((void)shardLanes(), "must be positive");
    }
    {
        ScopedEnv e("VIRTSIM_SHARDS", "lots");
        EXPECT_DEATH((void)shardLanes(), "positive integer");
    }
}

TEST(ShardTelemetry, PublishesCountersAndGauges)
{
    ShardedEventKernel kern(2);
    kern.assignShard(deviceShard, 0);
    kern.assignShard(cpuShard(0), 1);
    ShardChannel &req = kern.channel("t.req", deviceShard,
                                     cpuShard(0), 100);
    int fired = 0;
    kern.lane(0).scheduleAt(10, [&] {
        req.send(200, [&fired] { ++fired; });
    });
    // Give the destination lane pending work so the round loop runs
    // a bounded multi-lane schedule rather than a single drain.
    kern.lane(1).scheduleAt(5, [&fired] { ++fired; });
    kern.run();
    EXPECT_EQ(fired, 2);

    MetricsRegistry reg;
    kern.publishStats(reg);
    const MetricsSnapshot snap = reg.snapshot();
    std::uint64_t lanes = 0, rounds = 0, events = 0, msgs = 0;
    for (const auto &row : snap.counters) {
        if (row.name == "shard.lanes")
            lanes = row.value;
        else if (row.name == "shard.rounds")
            rounds = row.value;
        else if (row.name == "shard.lane1.events")
            events = row.value;
        else if (row.name == "shard.lane1.msgs_in")
            msgs = row.value;
    }
    EXPECT_EQ(lanes, 2u);
    EXPECT_GE(rounds, 1u);
    EXPECT_EQ(events, 2u); // local event + channel message
    EXPECT_EQ(msgs, 1u);

    TimelineSampler tl;
    const std::size_t before = tl.gaugeCount();
    kern.registerGauges(tl);
    // Three aggregates plus the per-lane trio (2 lanes is far below
    // the per-lane cap).
    EXPECT_EQ(tl.gaugeCount(), before + 3 + 2 * 3);
    EXPECT_GE(tl.findGauge("shard.lanes_live"), 0);
    EXPECT_GE(tl.findGauge("shard.stall_total"), 0);
    EXPECT_GE(tl.findGauge("shard.lag_max"), 0);
    EXPECT_GE(tl.findGauge("shard.lane0.depth"), 0);
    EXPECT_GE(tl.findGauge("shard.lane1.lag"), 0);
    EXPECT_GE(tl.findGauge("shard.lane1.stalls"), 0);
}

TEST(ShardTelemetry, PerLaneGaugesCappedAtHighLaneCounts)
{
    ShardedEventKernel kern(ShardedEventKernel::perLaneGaugeCap + 1);
    TimelineSampler tl;
    const std::size_t before = tl.gaugeCount();
    kern.registerGauges(tl);
    // Aggregates only: a fleet-scale kernel must not flood the
    // timeline with hundreds of per-lane series.
    EXPECT_EQ(tl.gaugeCount(), before + 3);
    EXPECT_LT(tl.findGauge("shard.lane0.depth"), 0);
}

TEST(ShardTelemetry, PublishSkipsIdleLanes)
{
    // 8 lanes, only two of them ever do anything: the idle six must
    // not publish all-zero counter rows.
    ShardedEventKernel kern(8);
    kern.assignShard(deviceShard, 0);
    kern.assignShard(cpuShard(0), 1);
    ShardChannel &req = kern.channel("t.req", deviceShard,
                                     cpuShard(0), 100);
    int fired = 0;
    kern.lane(0).scheduleAt(10, [&] {
        req.send(200, [&fired] { ++fired; });
    });
    kern.run();
    EXPECT_EQ(fired, 1);

    MetricsRegistry reg;
    kern.publishStats(reg);
    const MetricsSnapshot snap = reg.snapshot();
    std::uint64_t activeRows = 0;
    bool sawIdleLane = false;
    for (const auto &row : snap.counters) {
        if (row.name == "shard.lanes_active")
            activeRows = row.value;
        if (row.name.rfind("shard.lane7.", 0) == 0 ||
            row.name.rfind("shard.lane4.", 0) == 0)
            sawIdleLane = true;
    }
    EXPECT_EQ(activeRows, 2u);
    EXPECT_FALSE(sawIdleLane);
}

TEST(ShardSweep, ShardedRunInsideSweepSerializes)
{
    const FleetConfig cfg = smallFleet();
    const FleetResult direct = runNetperfRrFleet(cfg, 4);

    ScopedEnv jobs("VIRTSIM_JOBS", "2");
    const std::vector<int> items = {0, 1};
    const auto results =
        parallelSweep(items, [&cfg](int) {
            return runNetperfRrFleet(cfg, 4);
        });
    ASSERT_EQ(results.size(), 2u);
    for (const FleetResult &r : results) {
        EXPECT_TRUE(direct.sameModelledResult(r));
        // Inside a sweep worker the kernel must not spin up its own
        // crew on top of the sweep pool: rounds serialize.
        EXPECT_EQ(r.parallelRounds, 0u);
    }
}

TEST(ShardsEnv, ClassicTestbedResultsIdenticalAcrossShards)
{
    // The single-flow testbed worlds are zero-latency coupled, so
    // every shard lands on lane 0 regardless of VIRTSIM_SHARDS; the
    // modelled output must not depend on the knob.
    double mean[3] = {0, 0, 0};
    const char *settings[3] = {"1", "2", "8"};
    for (int i = 0; i < 3; ++i) {
        ScopedEnv e("VIRTSIM_SHARDS", settings[i]);
        Testbed tb(TestbedConfig{.kind = SutKind::KvmArm,
                                 .seed = 911});
        NetperfRrConfig nc;
        nc.transactions = 40;
        mean[i] = runNetperfRr(tb, nc).timePerTransUs;
    }
    EXPECT_EQ(mean[0], mean[1]);
    EXPECT_EQ(mean[0], mean[2]);
}

TEST(ShardsEnv, Table5ExportsByteIdenticalAcrossShards)
{
    // Satellite of the determinism bar: metrics and timeline exports
    // from the Table V netperf path must be byte-identical at every
    // VIRTSIM_SHARDS value (classic worlds place every component on
    // lane 0, so all stamping lands in segment 0 whatever the knob
    // says; no serial fallback is involved). The world comes from
    // acquireTestbed(), as the benches get theirs, and its exports
    // write when the handle goes out of scope.
    auto runOnce = [](const char *shards) {
        ScopedEnv s("VIRTSIM_SHARDS", shards);
        ScopedEnv m("VIRTSIM_METRICS", "/tmp/shard_t5_m.json");
        ScopedEnv t("VIRTSIM_TIMELINE", "/tmp/shard_t5_tl.json");
        {
            TestbedLease tb = acquireTestbed(
                TestbedConfig{.kind = SutKind::KvmArm, .seed = 912});
            NetperfRrConfig nc;
            nc.transactions = 25;
            (void)runNetperfRr(*tb, nc);
        }
        return std::pair<std::string, std::string>(
            slurp("/tmp/shard_t5_m.kvm_arm.json"),
            slurp("/tmp/shard_t5_tl.kvm_arm.json"));
    };
    const auto base = runOnce("1");
    ASSERT_FALSE(base.first.empty());
    ASSERT_FALSE(base.second.empty());
    EXPECT_EQ(base, runOnce("2"));
    EXPECT_EQ(base, runOnce("8"));
}

TEST(ShardsEnv, Figure4RowsIdenticalAcrossShards)
{
    AppBenchOptions opt;
    opt.kinds = {SutKind::KvmArm, SutKind::XenArm};
    std::vector<std::vector<double>> scores;
    for (const char *shards : {"1", "2", "8"}) {
        ScopedEnv e("VIRTSIM_SHARDS", shards);
        const auto rows = runFigure4(opt);
        std::vector<double> flat;
        for (const AppBenchRow &row : rows) {
            flat.push_back(row.nativeScoreArm);
            flat.push_back(row.nativeScoreX86);
            for (const auto &cell : row.cells) {
                flat.push_back(cell.score);
                flat.push_back(
                    cell.normalizedOverhead.value_or(-1.0));
            }
        }
        scores.push_back(std::move(flat));
    }
    ASSERT_FALSE(scores[0].empty());
    EXPECT_EQ(scores[0], scores[1]);
    EXPECT_EQ(scores[0], scores[2]);
}

TEST(FleetObservability, ExportsByteIdenticalAcrossLaneCounts)
{
    // The tentpole bar: every export — Perfetto trace, metrics JSON,
    // folded flamegraph, timeline JSON — from the genuinely parallel
    // fleet world must come out byte-identical at every lane count.
    // Sinks are lane-partitioned while stamping; the canonical
    // export-time merge (and the barrier-driven observer flush and
    // timeline sampling) erase the partition from the bytes.
    const FleetConfig cfg = smallFleet();
    ScopedEnv tr("VIRTSIM_TRACE", "/tmp/fleet_obs_tr.json");
    ScopedEnv m("VIRTSIM_METRICS", "/tmp/fleet_obs_m.json");
    ScopedEnv fl("VIRTSIM_FLAME", "/tmp/fleet_obs_fl.folded");
    ScopedEnv tl("VIRTSIM_TIMELINE", "/tmp/fleet_obs_tl.json");
    ScopedEnv noStats("VIRTSIM_SHARD_STATS", nullptr);

    struct Exports
    {
        std::string trace, metrics, flame, timeline;
        bool operator==(const Exports &) const = default;
    };
    auto runOnce = [&cfg](int lanes) {
        (void)runNetperfRrFleet(cfg, lanes);
        return Exports{slurp("/tmp/fleet_obs_tr.fleet.json"),
                       slurp("/tmp/fleet_obs_m.fleet.json"),
                       slurp("/tmp/fleet_obs_fl.fleet.folded"),
                       slurp("/tmp/fleet_obs_tl.fleet.json")};
    };

    const Exports serial = runOnce(1);
    ASSERT_FALSE(serial.trace.empty());
    ASSERT_FALSE(serial.metrics.empty());
    ASSERT_FALSE(serial.flame.empty());
    ASSERT_FALSE(serial.timeline.empty());
    // The trace really recorded the parallel phase: spans and causal
    // flow arrows from the per-CPU service path.
    EXPECT_NE(serial.trace.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(serial.flame.find("edge.lr"), std::string::npos);

    for (int lanes : {2, 8}) {
        const Exports r = runOnce(lanes);
        EXPECT_EQ(serial.trace, r.trace) << "lanes=" << lanes;
        EXPECT_EQ(serial.metrics, r.metrics) << "lanes=" << lanes;
        EXPECT_EQ(serial.flame, r.flame) << "lanes=" << lanes;
        EXPECT_EQ(serial.timeline, r.timeline) << "lanes=" << lanes;
    }
}

TEST(FleetObservability, OverflowCountsExactAndDeterministic)
{
    // Satellite: ring overflow under full-parallelism multi-lane
    // stamping must stay *accounted* — the dropped/truncated counts
    // surface in the metrics export as trace.health.* counters — and
    // repeated runs at a fixed lane count must agree byte-for-byte.
    // (Across lane counts the per-segment fill differs, so overflow
    // determinism is per-partition; the lossless test above covers
    // cross-partition identity.)
    const FleetConfig cfg = smallFleet();
    ScopedEnv cap("VIRTSIM_TRACE_CAPACITY", "256");
    ScopedEnv m("VIRTSIM_METRICS", "/tmp/fleet_ovf_m.json");
    ScopedEnv tr("VIRTSIM_TRACE", "/tmp/fleet_ovf_tr.json");
    ScopedEnv noStats("VIRTSIM_SHARD_STATS", nullptr);

    auto runOnce = [&cfg] {
        (void)runNetperfRrFleet(cfg, 4);
        return slurp("/tmp/fleet_ovf_m.fleet.json");
    };
    const std::string first = runOnce();
    ASSERT_FALSE(first.empty());
    // 256 slots per segment cannot hold the ~5k-record run: the
    // health counters must report the loss.
    EXPECT_NE(first.find("trace.health.dropped"), std::string::npos);
    EXPECT_EQ(first, runOnce());
    EXPECT_EQ(first, runOnce());
}

TEST(FleetObservability, ShardProfileJsonExports)
{
    const FleetConfig cfg = smallFleet();
    ScopedEnv p("VIRTSIM_SHARD_PROFILE", "/tmp/fleet_prof.json");
    const FleetResult r = runNetperfRrFleet(cfg, 4);
    EXPECT_GT(r.parallelRounds, 0u);
    const std::string json = slurp("/tmp/fleet_prof.fleet.json");
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"virtsim-shard-profile-3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"lanes\":4"), std::string::npos);
    EXPECT_NE(json.find("\"lanes_profiled\""), std::string::npos);
    EXPECT_NE(json.find("\"lane_detail\""), std::string::npos);
    EXPECT_NE(json.find("\"critical_channels\""), std::string::npos);
    EXPECT_NE(json.find("\"busy_over_wall\""), std::string::npos);
}

TEST(ShardSpeedup, FourLanesBeatSerialOnMulticoreHost)
{
    // The acceptance bar for the sharded kernel: >= 1.5x wall-clock
    // on the 4-CPU fleet at four lanes. Real parallelism needs real
    // CPUs; on smaller hosts (CI shells, containers pinned to one
    // core) the crew cannot beat serial, so the assertion is gated.
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "host has < 4 CPUs; no parallel win possible";

    FleetConfig cfg; // the bench-sized world (4 x 32 x 250)
    const auto wall = [&cfg](int lanes) {
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            const FleetResult r = runNetperfRrFleet(cfg, lanes);
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            EXPECT_GT(r.transactions, 0u);
            best = std::min(best, dt.count());
        }
        return best;
    };
    const double serial = wall(1);
    const double sharded = wall(4);
    EXPECT_GE(serial / sharded, 1.5)
        << "serial " << serial << "s vs 4-lane " << sharded << "s";
}

TEST(ShardSpeedup, TracedFourLanesBeatTracedSerial)
{
    // The observability bar: tracing must ride the parallel rounds,
    // not serialize them. A traced 4-lane fleet still has to beat a
    // traced serial run by >= 1.3x (tracing adds per-record stores on
    // every lane plus the canonical merge at export, so the bar sits
    // below the untraced 1.5x).
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "host has < 4 CPUs; no parallel win possible";

    FleetConfig cfg; // the bench-sized world (4 x 32 x 250)
    cfg.trace = true;
    const auto wall = [&cfg](int lanes) {
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            const FleetResult r = runNetperfRrFleet(cfg, lanes);
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            EXPECT_GT(r.transactions, 0u);
            best = std::min(best, dt.count());
        }
        return best;
    };
    const double serial = wall(1);
    const double sharded = wall(4);
    EXPECT_GE(serial / sharded, 1.3)
        << "traced serial " << serial << "s vs traced 4-lane "
        << sharded << "s";
}

TEST(ShardTimeline, BarrierSamplingMatchesAcrossLaneCounts)
{
    // Kernel-level check of the sampling semantics the fleet test
    // exercises end to end: gauges sampled from the barrier rounds at
    // period-aligned instants read the same model state — and render
    // the same JSON — whether the model runs on one lane or three.
    auto runOnce = [](int lanes) {
        ShardedEventKernel kern(lanes);
        Probe probe;
        for (int s = 0; s < 3; ++s)
            kern.assignShard(s, s % lanes);
        ShardChannel &fwd = kern.channel("t.fwd", 0, 1, 50);
        (void)fwd;
        kern.channel("t.rel", 1, 2, 50);

        // A model counter driven by events on every shard. Atomic
        // because concurrent lanes bump it inside a round; the value
        // the coordinator samples at a barrier is the number of
        // events executed below the sampling instant — a pure
        // function of simulated time, whatever the partition.
        static std::atomic<std::int64_t> level;
        level = 0;
        probe.timeline.addGauge("t.level", [] {
            return level.load(std::memory_order_relaxed);
        });
        probe.timeline.enable(100);
        kern.attachProbe(&probe);

        for (int s = 0; s < 3; ++s) {
            EventQueue &q = kern.lane(s % lanes);
            for (Cycles t = 30 + 7 * s; t < 1000; t += 130 + s) {
                q.scheduleAt(t, [] {
                    level.fetch_add(1, std::memory_order_relaxed);
                });
            }
        }
        kern.run();
        return probe.timeline.renderJson(Frequency(2.4));
    };
    const std::string serial = runOnce(1);
    EXPECT_NE(serial.find("t.level"), std::string::npos);
    EXPECT_EQ(serial, runOnce(2));
    EXPECT_EQ(serial, runOnce(3));
}
