#include "os/vhost.hh"

#include "os/kernel.hh"
#include "sim/attrib.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

struct VhostTaps
{
    TapId rxBacklogDropped = internTap("vhost.rx_backlog_dropped");
    TapId rxNoDescriptor = internTap("vhost.rx_no_descriptor");
    TapId txSpuriousKick = internTap("vhost.tx_spurious_kick");
};

constexpr auto &vhostTaps = tapsOf<VhostTaps>;

} // namespace

VhostBackend::VhostBackend(Machine &m, Vm &guest,
                           const NetstackCosts &net, Params params)
    : mach(m), guest(guest), net(net), p(params),
      rx(m, guest), tx(m, guest)
{
    VIRTSIM_ASSERT(p.workerPcpu < m.numCpus() &&
                   p.hostIrqPcpu < m.numCpus(),
                   "vhost pinned outside machine");
    vhostTaps();

    // Virtio/vhost queue-depth gauges, on the worker's CPU track.
    // The backend outlives the sampler's use of these captures: it is
    // torn down only with the whole world, after the last sample.
    TimelineSampler &tl = m.probe().timeline;
    const auto track = static_cast<std::uint16_t>(p.workerPcpu);
    tl.addGauge("vhost.rx_backlog",
                [this] {
                    return static_cast<std::int64_t>(rxBacklogDepth());
                },
                track);
    tl.addGauge("virtio.rx.avail",
                [this] {
                    return static_cast<std::int64_t>(rx.availDepth());
                },
                track);
    tl.addGauge("virtio.rx.used",
                [this] {
                    return static_cast<std::int64_t>(rx.usedDepth());
                },
                track);
    tl.addGauge("virtio.tx.avail",
                [this] {
                    return static_cast<std::int64_t>(tx.availDepth());
                },
                track);
}

void
VhostBackend::hostRxToGuest(Cycles t, const Packet &pkt,
                            bool aggregate_leader,
                            std::function<void(Cycles)> ready)
{
    const Frequency &f = mach.freq();
    PhysicalCpu &irq_cpu = mach.cpu(p.hostIrqPcpu);

    // Host stack + bridge + tap on the IRQ CPU (softirq context).
    // A GRO-aggregate leader pays the full traversal; followers only
    // the marginal per-frame cost, and ack-sized frames in a hot
    // stream take the amortized softirq path.
    const bool hot =
        everRx && t - lastRxAt < f.cycles(p.hotWindowUs);
    lastRxAt = t;
    everRx = true;
    Cycles stack = net.perGroFrame;
    if (aggregate_leader) {
        stack = (hot && pkt.bytes < 200)
            ? f.cycles(p.smallFrameHotUs)
            : net.rxStack + f.cycles(p.bridgeTapRxUs);
    }
    const Cycles at_tap = irq_cpu.charge(t, stack);

    // Hand off to the vhost worker kthread on its own CPU; the
    // worker drains its queue in simulated-time order so ring state
    // advances in step with the clock.
    if (rxJobs.size() >= rxJobCap) {
        mach.metrics().machine().counter(vhostTaps().rxBacklogDropped)
            .inc(static_cast<std::uint64_t>(framesFor(pkt.bytes)));
        return;
    }
    // Causal edge: the softirq-to-worker wakeup. Attribution links
    // the handoff (and any worker queueing delay) across CPUs.
    const std::uint64_t token = mach.trace().edgeOut(
        at_tap, edgeWakeTap(), TraceCat::Io,
        static_cast<std::uint16_t>(p.hostIrqPcpu));
    rxJobs.push_back(
        RxJob{pkt, aggregate_leader, std::move(ready), token});
    if (rxPumpActive)
        return;
    rxPumpActive = true;
    PhysicalCpu &worker = mach.cpu(p.workerPcpu);
    const Cycles start = std::max(at_tap, worker.frontier());
    EventFn wake = [this, start] { pumpRx(start); };
    if (wakeCh)
        wakeCh->send(start, std::move(wake));
    else
        mach.queue().scheduleAt(start, std::move(wake));
}

void
VhostBackend::pumpRx(Cycles t)
{
    if (rxJobs.empty()) {
        rxPumpActive = false;
        return;
    }
    RxJob job = std::move(rxJobs.front());
    rxJobs.pop_front();
    PhysicalCpu &worker = mach.cpu(p.workerPcpu);
    mach.trace().edgeIn(t, job.edgeToken, edgeWakeTap(), TraceCat::Io,
                        static_cast<std::uint16_t>(p.workerPcpu));

    // Worker fills a guest rx descriptor: zero copy, the payload
    // stays where the stack left it and the guest buffer is written
    // directly.
    bool ok = false;
    VirtioDesc desc;
    Cycles cost = rx.hostPop(desc, ok);
    if (!ok) {
        // Guest hasn't replenished rx descriptors; account a drop.
        mach.metrics().machine().counter(vhostTaps().rxNoDescriptor).inc();
        mach.queue().scheduleAt(t, [this, t] { pumpRx(t); });
        return;
    }
    desc.pkt = job.pkt;
    cost += mach.freq().cycles(p.vhostRxWorkUs);
    cost += rx.hostPushUsed(desc);
    const Cycles done = worker.charge(t, cost);
    mach.queue().scheduleAt(done,
                            [done, ready = std::move(job.ready)] {
                                ready(done);
                            });
    mach.queue().scheduleAt(done, [this, done] { pumpRx(done); });
}

void
VhostBackend::txFromGuest(Cycles t,
                          std::function<void(Cycles, const Packet &)>
                              on_datalink_tx)
{
    PhysicalCpu &worker = mach.cpu(p.workerPcpu);
    bool ok = false;
    VirtioDesc desc;
    Cycles cost = tx.hostPop(desc, ok);
    if (!ok) {
        mach.metrics().machine().counter(vhostTaps().txSpuriousKick).inc();
        return;
    }
    // Streaming transmit keeps the worker and the stack hot:
    // per-packet costs amortize; a lone send pays the cold path
    // (the Table V single-transaction case).
    const bool hot = everTx &&
                     t - lastTxAt < mach.freq().cycles(p.hotWindowUs);
    lastTxAt = t;
    everTx = true;
    if (hot) {
        cost += mach.freq().cycles(p.vhostTxHotUs);
        cost += mach.freq().cycles(0.9); // amortized forwarding
    } else {
        cost += mach.freq().cycles(p.vhostTxWorkUs);
        cost += mach.freq().cycles(p.bridgeTapTxUs);
        cost += net.txStack;
    }
    cost += net.doorbell;
    const Cycles done = worker.charge(t, cost);
    mach.queue().scheduleAt(done, [done, pkt = desc.pkt,
                                   on_datalink_tx] {
        on_datalink_tx(done, pkt);
    });
}

} // namespace virtsim
