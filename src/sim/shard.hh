/**
 * @file
 * Sharded event kernel: conservative-lookahead parallel DES.
 *
 * A ShardedEventKernel owns N EventQueue lanes and advances them in
 * synchronization rounds. Each round:
 *
 *  1. Cross-lane messages buffered since the last round are merged
 *     into their destination lanes in a fixed (source lane,
 *     destination lane, send order) sequence, so (time, seq) tie
 *     breaks are independent of thread timing.
 *  2. Every lane's next event time is read, and each lane's safe
 *     horizon is computed from the declared channel lookaheads as
 *     the LBTS (lower bound on time stamp) fixed point
 *       N[i] = min(nextEvent[i],
 *                  min over edges j->i of (N[j] + minLookahead[j][i]))
 *     iterated to convergence, then
 *       target[i] = min over edges j->i of (N[j] + minLookahead[j][i])
 *     N[i] lower-bounds the time of anything lane i could still
 *     execute or emit. Crucially an *empty* lane with in-edges still
 *     bounds its downstream lanes through its own earliest possible
 *     receive time: a message can wake it and make it send (request/
 *     response chains, an idle CPU woken by an injected IRQ), so it
 *     must not be treated as unconstraining. Only a lane with no
 *     in-edges at all leaves its targets unbounded. Because any
 *     message lane j emits while executing an event at time t >=
 *     N[j] arrives no earlier than t + lookahead >= N[j] + lookahead
 *     >= target[i], no lane can ever receive a message in its own
 *     past — the classic conservative (Chandy-Misra-Bryant) safety
 *     argument, with the barrier round standing in for null
 *     messages.
 *  3. Lanes execute their events strictly below their horizons, in
 *     parallel on a persistent worker crew when more than one lane
 *     has work (and parallelism is permitted), serially on the
 *     calling thread otherwise. Progress is guaranteed: the lane
 *     holding the globally earliest event always has
 *     target > nextEvent because every cross-lane lookahead is
 *     positive.
 *
 * The coordinator is *sparse*: per-round cost is O(active lanes +
 * traffic edges), not O(lanes^2), so a 256-lane fleet with a dozen
 * busy lanes pays for a dozen. Concretely:
 *
 *  - The lookahead matrix is flattened once per run into per-lane
 *    in/out adjacency lists (LaneEdge, sim/channel.hh); the LBTS
 *    fixed point is computed by worklist relaxation over those edges
 *    seeded from the lanes that hold events. Min-plus relaxation has
 *    a unique least fixed point, so the worklist result is
 *    byte-identical to the dense iteration (assert-checked every
 *    round in debug builds, and on demand via
 *    enableHorizonCrossCheck()).
 *  - The mailbox merge visits only (src, dst) pairs that actually
 *    buffered messages this round: each sending lane privately
 *    records the destinations it touched, and the coordinator drains
 *    exactly those, still in (src asc, dst asc, send order).
 *  - Next-event times are cached and refreshed only for lanes that
 *    ran or received a merged message — the only ways a lane's queue
 *    legally changes during a run.
 *  - Idle lanes are elided: a lane whose next event is at or beyond
 *    its round target is neither handed to a worker nor counted as a
 *    stall. The worker crew itself is sized by the host's core
 *    count, not the lane count, and drains the runnable-lane list
 *    work-stealing style.
 *
 * The legacy dense coordinator survives as a reference
 * implementation (VIRTSIM_SHARD_DENSE=1, or setDenseCoordinator());
 * it produces byte-identical modelled results and exists for
 * differential tests and as the baseline the fleet-scale benchmarks
 * measure against.
 *
 * Determinism is absolute, not statistical: mailboxes are drained in
 * declaration order before any lane runs, each lane is itself a
 * deterministic (time, seq) total order, and horizon computation
 * depends only on lane states — so the simulated behavior is
 * byte-identical whether lanes run on one thread or eight, and
 * whether the kernel has 1 lane or N. Observability rides along at
 * full parallelism: sinks are lane-partitioned (TraceSink segments,
 * EventKernelProfiler lane histograms — see sim/lane.hh) so stamping
 * stays synchronization-free, exports merge the partitions in a
 * canonical order that is a pure function of what was recorded, the
 * streaming observer is flushed in that order at every barrier
 * (TraceSink::flushObserver), and timeline gauges are sampled by the
 * coordinator between rounds at period-aligned instants no lane has
 * yet reached (attachProbe). Exported bytes are identical at every
 * VIRTSIM_SHARDS; no serial fallback is needed or provided.
 *
 * VIRTSIM_SHARDS=1 (the default) constructs a single lane and run()
 * is a literal passthrough to EventQueue::run() — unless a probe is
 * attached, in which case even one lane takes the round path so
 * barrier-driven sampling and observer flushing behave identically.
 */

#ifndef VIRTSIM_SIM_SHARD_HH
#define VIRTSIM_SIM_SHARD_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/shard_profile.hh"
#include "sim/types.hh"

namespace virtsim {

class MetricsRegistry;
class TimelineSampler;
struct Probe;

/** Lane count a kernel built from the environment will use:
 *  VIRTSIM_SHARDS if set (validated positive integer), else 1. */
int shardLanes();

/**
 * N event lanes plus the conservative coordinator. See file comment.
 */
class ShardedEventKernel
{
  public:
    explicit ShardedEventKernel(int laneCount = 1);
    ~ShardedEventKernel();

    ShardedEventKernel(const ShardedEventKernel &) = delete;
    ShardedEventKernel &operator=(const ShardedEventKernel &) = delete;

    int laneCount() const { return static_cast<int>(lanes_.size()); }

    /** Lane i's event queue. References stay valid for the kernel's
     *  lifetime. Lane 0 is the serial kernel when laneCount() == 1. */
    EventQueue &
    lane(int i)
    {
        return *lanes_[static_cast<std::size_t>(i)];
    }

    /** @name Shard-to-lane assignment */
    ///@{
    /** Map a shard onto a lane (default: shard % laneCount, with
     *  every shard on lane 0 when laneCount == 1). Components coupled
     *  through zero-latency shared state must share a lane. */
    void assignShard(ShardId shard, int lane);

    int laneOf(ShardId shard) const;
    ///@}

    /**
     * Declare a channel from shard src to shard dst with the given
     * minimum latency. src may be anyShard (every lane can send; used
     * for IPIs, where the sender is whichever CPU executes the send).
     * @pre lookahead > 0 when the endpoints resolve to different
     *      lanes — a zero-latency cross-lane edge would deadlock the
     *      conservative horizon. Zero is fine same-lane.
     * @return a stable reference, valid for the kernel's lifetime.
     */
    ShardChannel &channel(std::string name, ShardId src, ShardId dst,
                          Cycles lookahead);

    /** @name Execution */
    ///@{
    /** Run until every lane drains. @return final time (max lane). */
    Cycles run();

    /** Run events with timestamps <= limit on every lane; lanes are
     *  then advanced to limit. @return the final time. */
    Cycles runUntil(Cycles limit);

    /** Fire exactly one event on the single lane. Only meaningful —
     *  and only allowed — for single-lane kernels (unit-test
     *  stepping); multi-lane execution is round-based. */
    bool step();

    /** Latest lane clock (the simulation's notion of "now" between
     *  runs; lanes may transiently differ during a run). */
    Cycles now() const;
    ///@}

    /**
     * Attach the observability bundle the kernel must service while
     * running rounds (or nullptr to detach): the coordinator flushes
     * the trace sink's deferred observer at every barrier and, when
     * the probe's timeline is enabled, samples its gauges at
     * period-aligned simulated instants between rounds — each sample
     * taken after every event below the instant and before any event
     * at or above it, at every lane count. Also routes single-lane
     * run()s through the round loop so the same machinery engages.
     * The harness remains responsible for lane-partitioning the
     * sinks (prepareForParallel) and arming deferred observer mode.
     */
    void attachProbe(Probe *p) { probe_ = p; }
    Probe *attachedProbe() const { return probe_; }

    /**
     * Start recording the parallel-kernel profile: per-lane busy /
     * barrier-wait / stall wall time and per-round critical-channel
     * attribution (see sim/shard_profile.hh). Host-clock
     * measurements — cheap (two steady_clock reads per lane phase),
     * but nonzero, so opt-in; exports of the profile are excluded
     * from byte-identity guarantees.
     */
    void enableShardProfile();

    const ShardProfile &shardProfile() const { return profile_; }

    /**
     * Switch to the legacy dense O(lanes^2) coordinator (reference
     * implementation). Modelled results and lane statistics are
     * byte-identical either way; only wall-clock cost and execution
     * counters (parallelRounds, laneDispatches) may differ. Also
     * selectable via VIRTSIM_SHARD_DENSE=1 for benchmarks.
     */
    void setDenseCoordinator(bool dense) { dense_ = dense; }
    bool denseCoordinator() const { return dense_; }

    /**
     * Recompute every round's horizons with the dense fixed point and
     * assert the sparse worklist result is identical (bounds and
     * targets). Always on in debug (!NDEBUG) builds; this switch
     * exists so differential tests can force the check in release
     * builds too.
     */
    void enableHorizonCrossCheck() { crossCheck_ = true; }

    /** @name Shard health telemetry */
    ///@{
    struct LaneStats
    {
        std::uint64_t events = 0;   ///< events fired via rounds
        std::uint64_t advances = 0; ///< rounds that fired >= 1 event
        std::uint64_t stalls = 0;   ///< rounds blocked by the horizon
        std::uint64_t msgsIn = 0;   ///< cross-lane messages received
        Cycles maxHorizonLag = 0;   ///< max clock deficit vs front
    };

    struct Stats
    {
        std::uint64_t rounds = 0;         ///< synchronization rounds
        std::uint64_t parallelRounds = 0; ///< rounds using the crew
        std::uint64_t crossMsgs = 0;      ///< total cross-lane sends
        /** Lane executions handed to the execute phase, summed over
         *  rounds. The sparse coordinator's elision shows up here:
         *  laneDispatches / rounds is the mean number of *runnable*
         *  lanes per round, far below laneCount() on a mostly idle
         *  fleet (the dense coordinator always dispatches every
         *  lane). */
        std::uint64_t laneDispatches = 0;
        std::vector<LaneStats> lanes;
    };

    const Stats &stats() const { return st; }

    /**
     * Publish the round statistics as machine-domain "shard.*"
     * counters. Explicit opt-in, like publishSweepPoolStats(): lane
     * counts are a host-side execution detail, so they are never
     * mixed into per-testbed snapshots (which must stay byte-identical
     * across VIRTSIM_SHARDS). Per-lane counter rows are emitted only
     * for lanes that did anything — at fleet scale most lanes of a
     * generously sized kernel stay empty, and 256 all-zero rows would
     * drown the export; "shard.lanes_active" carries the count of
     * emitted rows.
     */
    void publishStats(MetricsRegistry &metrics) const;

    /**
     * Register shard-health gauges with a timeline sampler. Opt-in
     * for the same reason as publishStats: lane topology is a
     * host-side execution detail that must not leak into exports
     * meant to be byte-identical across VIRTSIM_SHARDS.
     *
     * Always registers three aggregate gauges (shard.lanes_live,
     * shard.stall_total, shard.lag_max); the per-lane trio (depth,
     * lag, stalls) is added only when laneCount() <=
     * perLaneGaugeCap — a 256-lane fleet must not flood the timeline
     * with 768 per-lane series.
     */
    void registerGauges(TimelineSampler &tl);

    /** Largest lane count for which registerGauges() emits per-lane
     *  series in addition to the aggregates. */
    static constexpr int perLaneGaugeCap = 16;
    ///@}

    /** Lane the calling thread is currently executing events for, or
     *  -1 outside lane execution (setup, coordinator). */
    static int currentLane();

  private:
    friend class ShardChannel;

    /** A buffered cross-lane message. */
    struct Pending
    {
        Cycles when;
        TapId label;
        EventFn fn;
    };

    /** Mailbox for one (source lane, destination lane) pair. Written
     *  only by the source lane's thread during a round, drained only
     *  by the coordinator between rounds — no locking needed; the
     *  round barrier provides the happens-before edges. */
    struct Mailbox
    {
        std::vector<Pending> msgs;
    };

    /** Implementation of ShardChannel::send. */
    EventId channelSend(ShardChannel &ch, Cycles when, TapId label,
                        EventFn fn);

    Mailbox &
    mailbox(int srcLane, int dstLane)
    {
        return mail[static_cast<std::size_t>(srcLane) *
                        lanes_.size() +
                    static_cast<std::size_t>(dstLane)];
    }

    /** Record (or tighten) the lookahead edge srcLane -> dstLane,
     *  remembering the channel that owns the tightest bound for
     *  critical-channel attribution. */
    void addLookahead(int srcLane, int dstLane, Cycles look,
                      const std::string &channelName);

    /** Flatten the lookahead matrix into the in/out adjacency lists.
     *  Called lazily at run start after any channel declaration. */
    void rebuildEdges();

    /** Re-read lane i's next event time into the cache, keeping the
     *  live-lane set consistent. */
    void refreshLane(int i);

    /** The round loop shared by run() and runUntil(). */
    Cycles runRounds(bool bounded, Cycles limit);

    /** One full run's round loop, sparse coordinator. */
    void runSparseRounds(bool bounded, Cycles limit,
                         TimelineSampler *tl, Cycles tickAt,
                         bool prof);

    /** One full run's round loop, dense reference coordinator. */
    void runDenseRounds(bool bounded, Cycles limit,
                        TimelineSampler *tl, Cycles tickAt, bool prof);

    /** Dense recomputation of this round's bounds and targets,
     *  asserted equal to the sparse worklist result. */
    void verifyHorizons(bool bounded, Cycles limit,
                        TimelineSampler *tl, Cycles tickAt) const;

    /** Execute one round's lane phase over dispatch_ (parallel or
     *  serial), filling roundFired for the dispatched lanes. */
    void executePhase(bool parallel);

    /** Pop and run dispatch_ entries until the list is drained.
     *  Called concurrently by the coordinator and every worker. */
    void drainDispatch();

    /** Run one lane up to its round target under its LaneScope,
     *  recording fired count (and busy time when profiling). */
    void runLane(int i);

    /** @name Worker crew (sized by host cores, not lanes; the
     *  coordinator thread drains the dispatch list alongside it) */
    ///@{
    void startCrew();
    void stopCrew();
    void workerLoop();
    ///@}

    std::vector<std::unique_ptr<EventQueue>> lanes_;
    std::vector<std::unique_ptr<ShardChannel>> channels_;
    std::vector<int> shardLane;  ///< shard -> lane, assignShard()
    std::vector<Cycles> minLook; ///< lane x lane lookahead matrix
    /** Channel owning the tightest lookahead per lane pair, for
     *  critical-channel attribution in the shard profile. */
    std::vector<std::string> lookChannel;
    std::vector<Mailbox> mail;   ///< lane x lane mailboxes

    /** @name Sparse channel graph (rebuilt from minLook on demand) */
    ///@{
    std::vector<std::vector<LaneEdge>> inEdges_;
    std::vector<std::vector<LaneEdge>> outEdges_;
    bool edgesDirty_ = true;
    ///@}

    /** Destinations lane s buffered a first message for this round:
     *  written only by lane s's thread (mailbox discipline), read and
     *  cleared only by the coordinator between rounds. */
    std::vector<std::vector<int>> touchedDst_;

    /** @name Cached lane state (coordinator-owned)
     *  nextEv_ mirrors every lane's nextEventTime(); liveLanes_ is
     *  the unordered set of lanes with a pending event, with
     *  livePos_/laneLive_ the swap-erase bookkeeping. Valid because a
     *  lane's queue only changes by running, by a merged message, or
     *  by setup between runs — all refresh points. */
    ///@{
    std::vector<Cycles> nextEv_;
    std::vector<int> liveLanes_;
    std::vector<int> livePos_;
    std::vector<unsigned char> laneLive_;
    ///@}

    /** @name Worklist-relaxation scratch (bound_ stays noBound
     *  everywhere between rounds; touchedBound_ undoes each round) */
    ///@{
    std::vector<Cycles> bound_;
    std::vector<int> work_;
    std::vector<unsigned char> inWork_;
    std::vector<int> touchedBound_;
    ///@}

    /** Runnable lanes this round, ascending; doubles as the merge
     *  scan list next round (only dispatched lanes can have sent). */
    std::vector<int> dispatch_;
    std::vector<unsigned char> dispatched_;
    /** Next dispatch_ index to claim (work-stealing pop). */
    std::atomic<std::size_t> dispatchNext_{0};

    /** Per-round scratch, owned by the coordinator; workers read
     *  their own targets slot and write their own fired slot. */
    std::vector<Cycles> roundTarget;
    std::vector<std::size_t> roundFired;
    /** Per-round, per-lane busy wall time, written by each lane's
     *  executor inside the round barrier (profiler only). */
    std::vector<std::uint64_t> roundBusyNs;

    Stats st;
    Probe *probe_ = nullptr;
    ShardProfile profile_;
    bool profileEnabled_ = false;
    bool dense_ = false;
    bool crossCheck_ = false;

    /** Crew synchronization: generation-counted round barrier. */
    std::mutex crewMutex;
    std::condition_variable crewStart;
    std::condition_variable crewDone;
    std::vector<std::thread> crew;
    std::uint64_t crewGen = 0;
    int crewRunning = 0;
    bool crewQuit = false;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_SHARD_HH
