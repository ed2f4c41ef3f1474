/**
 * @file
 * Tests for the OS-level I/O backends: vhost (KVM) and netback
 * (Xen), plus the netstack cost model and the trace/report helpers.
 */

#include <gtest/gtest.h>

#include "core/figure.hh"
#include "core/report.hh"
#include "counters.hh"
#include "os/netback.hh"
#include "os/netstack.hh"
#include "os/vhost.hh"
#include "sim/probe.hh"

using namespace virtsim;

namespace {

struct BackendFixture : public ::testing::Test
{
    EventQueue eq;
    Machine m{eq, MachineConfig::hpMoonshotM400()};
    Vm guest{1, "vm0", VmKind::Guest, 4, {0, 1, 2, 3}};
    Vm dom0{0, "dom0", VmKind::Dom0, 4, {4, 5, 6, 7}};
    NetstackCosts net = NetstackCosts::linux(m.freq());

    Packet
    pkt(std::uint32_t bytes, std::uint64_t flow = 1)
    {
        Packet p;
        p.flow = flow;
        p.bytes = bytes;
        return p;
    }
};

} // namespace

TEST(NetstackCosts, NativeRecvToSendBudget)
{
    // The Table V anchor: irq + rx + wake + echo + tx + doorbell
    // must land near 14.5 us natively (echo is charged by netperf).
    const Frequency f(2.4);
    const NetstackCosts c = NetstackCosts::linux(f);
    const double us = f.us(c.irqPath + c.rxStack + c.socketWake +
                           c.txStack + c.doorbell) +
                      1.75 /* appEchoUs */;
    EXPECT_NEAR(us, 14.5, 0.8);
}

TEST(NetstackCosts, RegressedTsoIsMuchSmaller)
{
    const NetstackCosts c = NetstackCosts::linux(Frequency(2.4));
    EXPECT_GE(c.tsoBytes / c.tsoBytesRegressed, 16u);
}

TEST_F(BackendFixture, VhostRxDeliversThroughWorker)
{
    VhostBackend::Params vp;
    VhostBackend vhost(m, guest, net, vp);
    for (int i = 0; i < 4; ++i) {
        VirtioDesc d;
        d.buf = m.memory().alloc("vm0", 2048);
        vhost.rxRing().guestPost(d);
    }
    Cycles ready_at = 0;
    vhost.hostRxToGuest(1000, pkt(1500), true,
                        [&](Cycles t) { ready_at = t; });
    eq.run();
    EXPECT_GT(ready_at, 1000u);
    // Work split across the IRQ CPU and the worker CPU.
    EXPECT_GT(m.cpu(vp.hostIrqPcpu).busyCycles(), 0u);
    EXPECT_GT(m.cpu(vp.workerPcpu).busyCycles(), 0u);
    EXPECT_EQ(vhost.rxRing().usedDepth(), 1u);
}

TEST_F(BackendFixture, VhostRxDropsWithoutDescriptors)
{
    VhostBackend::Params vp;
    VhostBackend vhost(m, guest, net, vp);
    bool delivered = false;
    vhost.hostRxToGuest(0, pkt(1500), true,
                        [&](Cycles) { delivered = true; });
    eq.run();
    EXPECT_FALSE(delivered);
    EXPECT_EQ(countOf(m, "vhost.rx_no_descriptor"), 1u);
}

TEST_F(BackendFixture, VhostRxJobsSerializeOnWorker)
{
    VhostBackend::Params vp;
    VhostBackend vhost(m, guest, net, vp);
    for (int i = 0; i < 8; ++i) {
        VirtioDesc d;
        d.buf = m.memory().alloc("vm0", 2048);
        vhost.rxRing().guestPost(d);
    }
    std::vector<Cycles> readies;
    for (int i = 0; i < 8; ++i) {
        vhost.hostRxToGuest(0, pkt(1500), true, [&](Cycles t) {
            readies.push_back(t);
        });
    }
    eq.run();
    ASSERT_EQ(readies.size(), 8u);
    for (std::size_t i = 1; i < readies.size(); ++i)
        EXPECT_GT(readies[i], readies[i - 1]);
}

TEST_F(BackendFixture, NetbackRxGrantCopiesPerFrame)
{
    NetbackBackend::Params np;
    NetbackBackend nb(m, dom0, guest, net, np);
    for (int i = 0; i < 32; ++i) {
        PvRequest req;
        const BufferId buf = m.memory().alloc("vm0", 4096);
        req.gref = nb.grantTable().grant(buf, false);
        nb.rxRing().frontPost(req);
    }
    Cycles ready_at = 0;
    // A 3-frame GRO aggregate needs three grant transfers.
    nb.dom0RxToDomU(0, pkt(4500), true,
                    [&](Cycles t) { ready_at = t; });
    eq.run();
    EXPECT_GT(ready_at, 0u);
    EXPECT_EQ(countOf(m, "grant.copies") +
                  countOf(m, "grant.copies_batched"),
              3u);
    EXPECT_EQ(nb.rxRing().responseDepth(), 3u);
}

TEST_F(BackendFixture, NetbackPartialDeliveryOnRingExhaustion)
{
    NetbackBackend::Params np;
    NetbackBackend nb(m, dom0, guest, net, np);
    // Only two rx slots for a three-frame aggregate.
    for (int i = 0; i < 2; ++i) {
        PvRequest req;
        const BufferId buf = m.memory().alloc("vm0", 4096);
        req.gref = nb.grantTable().grant(buf, false);
        nb.rxRing().frontPost(req);
    }
    bool delivered = false;
    nb.dom0RxToDomU(0, pkt(4500), true,
                    [&](Cycles) { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered); // what was copied still flows
    EXPECT_EQ(countOf(m, "netback.rx_no_request"), 1u);
    EXPECT_EQ(nb.rxRing().responseDepth(), 2u);
}

TEST_F(BackendFixture, NetbackTxChargesDom0AndEmitsFrame)
{
    NetbackBackend::Params np;
    NetbackBackend nb(m, dom0, guest, net, np);
    const BufferId buf = m.memory().alloc("vm0", 2048);
    PvRequest req;
    req.gref = nb.grantTable().grant(buf, true);
    req.pkt = pkt(1500);
    nb.txRing().frontPost(req);
    Cycles tx_at = 0;
    nb.domUTx(0, [&](Cycles t, const Packet &p) {
        tx_at = t;
        EXPECT_EQ(p.bytes, 1500u);
    });
    eq.run();
    EXPECT_GT(tx_at, 0u);
    EXPECT_GT(m.cpu(np.dom0Pcpu).busyCycles(), 0u);
}

TEST(TraceSink, StampsAndIntervals)
{
    const TapId recv = internTap("test.recv");
    const TapId send = internTap("test.send");
    TraceSink sink;
    sink.stamp(10, 1, recv); // disabled: dropped
    sink.enable();
    sink.stamp(100, 1, recv);
    sink.stamp(150, 1, send);
    sink.stamp(120, 2, recv);
    EXPECT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.find(1, recv).value(), 100u);
    EXPECT_EQ(sink.between(1, recv, send).value(), 50u);
    EXPECT_FALSE(sink.between(1, send, recv).has_value());
    EXPECT_FALSE(sink.find(3, recv).has_value());
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, BetweenPairsNearestFollowingStamp)
{
    // Regression: a retried transaction stamps the same taps twice.
    // `between` must pair the first `from` with the nearest
    // *following* `to`, not a stale earlier one or the global first.
    const TapId from = internTap("test.pair.from");
    const TapId to = internTap("test.pair.to");
    TraceSink sink;
    sink.enable();
    sink.stamp(50, 7, to);    // stale `to` before any `from`
    sink.stamp(100, 7, from);
    sink.stamp(130, 7, to);   // the causal partner
    sink.stamp(200, 7, from); // retry pair, must be ignored
    sink.stamp(260, 7, to);
    EXPECT_EQ(sink.between(7, from, to).value(), 30u);
}

TEST(Report, TextTableAlignsAndCounts)
{
    TextTable t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    EXPECT_EQ(t.rows(), 2u);
    const std::string out = t.render();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(ReportDeath, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Report, Formatting)
{
    EXPECT_EQ(formatCycles(6500), "6,500");
    EXPECT_EQ(formatCycles(71), "71");
    EXPECT_EQ(formatCycles(11557), "11,557");
    EXPECT_EQ(formatCycles(1234567), "1,234,567");
    EXPECT_EQ(formatFixed(1.347, 2), "1.35");
    EXPECT_EQ(formatDelta(110, 100), "+10.0%");
    EXPECT_EQ(formatDelta(95, 100), "-5.0%");
    EXPECT_EQ(formatDelta(1, 0), "n/a");
}

TEST(Report, CsvRendering)
{
    TextTable t({"Name", "Value"});
    t.addRow({"plain", "1"});
    t.addRow({"with,comma", "quote\"inside"});
    const std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("Name,Value\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\",\"quote\"\"inside\"\n"),
              std::string::npos);
}

TEST(Figure, BarsScaleClipAndLabel)
{
    BarFigure fig({"A", "B"}, 2.0, 10);
    EXPECT_EQ(fig.renderBar(1.0).size(), 5u);
    EXPECT_EQ(fig.renderBar(2.0).size(), 10u);
    // Over-scale bars clip with a marker, like the paper's axis.
    const std::string clipped = fig.renderBar(4.0);
    EXPECT_EQ(clipped.size(), 10u);
    EXPECT_EQ(clipped.back(), '>');

    fig.addGroup("workload", {1.5, std::nullopt});
    const std::string out = fig.render();
    EXPECT_NE(out.find("workload"), std::string::npos);
    EXPECT_NE(out.find("N/A"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_EQ(fig.groups(), 1u);
}

TEST(FigureDeath, GroupWidthMismatchPanics)
{
    BarFigure fig({"A", "B"}, 2.0);
    EXPECT_DEATH(fig.addGroup("w", {1.0}), "group width");
}
