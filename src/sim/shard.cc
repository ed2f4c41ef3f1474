#include "sim/shard.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "sim/env.hh"
#include "sim/lane.hh"
#include "sim/log.hh"
#include "sim/probe.hh"
#include "sim/sweep.hh"
#include "sim/timeline.hh"

namespace virtsim {

namespace {

// The lane marker (currentExecLane / LaneScope, sim/lane.hh) is set
// around every runBefore() phase — parallel workers and the serial
// round loop alike — so ShardChannel sends can infer their source
// lane, and lane-partitioned sinks their segment, without threading a
// context argument through every component.

constexpr Cycles noBound = std::numeric_limits<Cycles>::max();

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

/** Saturating add for horizon arithmetic: an unbounded time plus a
 *  finite lookahead stays unbounded instead of wrapping. */
constexpr Cycles
satAdd(Cycles t, Cycles look)
{
    return t > noBound - look ? noBound : t + look;
}

} // namespace

int
shardLanes()
{
    // Cap well below anything sane; a typo like VIRTSIM_SHARDS=1e9
    // should fail loudly, not allocate a billion queues.
    const auto v = envPositiveCount("VIRTSIM_SHARDS", 1024);
    return v ? static_cast<int>(*v) : 1;
}

int
ShardedEventKernel::currentLane()
{
    return currentExecLane();
}

ShardedEventKernel::ShardedEventKernel(int laneCount)
{
    VIRTSIM_ASSERT(laneCount >= 1, "kernel needs at least one lane");
    lanes_.reserve(static_cast<std::size_t>(laneCount));
    for (int i = 0; i < laneCount; ++i)
        lanes_.push_back(std::make_unique<EventQueue>());
    const auto n = static_cast<std::size_t>(laneCount);
    minLook.assign(n * n, noBound);
    lookChannel.assign(n * n, std::string());
    mail.resize(n * n);
    touchedDst_.resize(n);
    nextEv_.assign(n, noPendingEvent);
    livePos_.assign(n, -1);
    laneLive_.assign(n, 0);
    bound_.assign(n, noBound);
    inWork_.assign(n, 0);
    dispatched_.assign(n, 0);
    roundTarget.resize(n);
    roundFired.resize(n);
    roundBusyNs.resize(n);
    st.lanes.resize(n);
#ifndef NDEBUG
    crossCheck_ = true;
#endif
}

ShardedEventKernel::~ShardedEventKernel()
{
    stopCrew();
}

void
ShardedEventKernel::assignShard(ShardId shard, int lane)
{
    VIRTSIM_ASSERT(shard >= 0, "bad shard ", shard);
    VIRTSIM_ASSERT(lane >= 0 && lane < laneCount(), "bad lane ", lane);
    const auto s = static_cast<std::size_t>(shard);
    if (shardLane.size() <= s)
        shardLane.resize(s + 1, -1);
    shardLane[s] = lane;
}

int
ShardedEventKernel::laneOf(ShardId shard) const
{
    if (shard >= 0 &&
        static_cast<std::size_t>(shard) < shardLane.size() &&
        shardLane[static_cast<std::size_t>(shard)] >= 0) {
        return shardLane[static_cast<std::size_t>(shard)];
    }
    return shard < 0 ? 0 : shard % laneCount();
}

void
ShardedEventKernel::addLookahead(int srcLane, int dstLane, Cycles look,
                                 const std::string &channelName)
{
    if (srcLane == dstLane)
        return;
    const std::size_t flat = static_cast<std::size_t>(srcLane) *
                                 lanes_.size() +
                             static_cast<std::size_t>(dstLane);
    Cycles &slot = minLook[flat];
    // Remember which channel owns the tightest bound on this edge:
    // that is the name the shard profile reports when the edge limits
    // a lane's horizon. First declaration wins ties.
    if (look < slot || lookChannel[flat].empty())
        lookChannel[flat] = channelName;
    slot = std::min(slot, look);
    edgesDirty_ = true;
}

void
ShardedEventKernel::rebuildEdges()
{
    const int n = laneCount();
    inEdges_.assign(static_cast<std::size_t>(n), {});
    outEdges_.assign(static_cast<std::size_t>(n), {});
    for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
            const Cycles look =
                minLook[static_cast<std::size_t>(s) * lanes_.size() +
                        static_cast<std::size_t>(d)];
            if (look == noBound)
                continue;
            // Built with both endpoints ascending: inEdges_[d] lists
            // sources ascending, so critical-channel attribution
            // breaks ties toward the lowest source lane.
            outEdges_[static_cast<std::size_t>(s)].push_back(
                LaneEdge{d, look});
            inEdges_[static_cast<std::size_t>(d)].push_back(
                LaneEdge{s, look});
        }
    }
    edgesDirty_ = false;
}

ShardChannel &
ShardedEventKernel::channel(std::string name, ShardId src, ShardId dst,
                            Cycles lookahead)
{
    const int dstLane = laneOf(dst);
    bool cross = false;
    if (src == anyShard) {
        for (int l = 0; l < laneCount(); ++l) {
            if (l != dstLane) {
                cross = true;
                addLookahead(l, dstLane, lookahead, name);
            }
        }
    } else if (laneOf(src) != dstLane) {
        cross = true;
        addLookahead(laneOf(src), dstLane, lookahead, name);
    }
    VIRTSIM_ASSERT(!cross || lookahead > 0,
                   "channel '", name, "' crosses lanes with zero ",
                   "lookahead; conservative sync needs latency > 0");
    // Redeclaration — a harness rebuilding part of its world on a
    // long-lived kernel, possibly with retuned latencies — reuses
    // the existing channel and keeps the tighter of the two
    // lookaheads; the matrix update above already took the min, which
    // is always the safe direction (stale edges from an earlier shard
    // plan can only tighten horizons, never unsafely widen them).
    for (auto &ch : channels_) {
        if (ch->_name == name) {
            VIRTSIM_ASSERT(ch->src == src && ch->dst == dst,
                           "channel '", name,
                           "' redeclared with different endpoints");
            ch->look = std::min(ch->look, lookahead);
            // The shard-to-lane plan may have changed since the first
            // declaration (assignShard before the rebuild): refresh
            // the cached routing so sends follow the current plan
            // instead of silently targeting a stale lane.
            ch->_dstLane = dstLane;
            ch->_crossLane = cross;
            return *ch;
        }
    }
    channels_.push_back(std::unique_ptr<ShardChannel>(
        new ShardChannel(this, std::move(name), src, dst, lookahead,
                         dstLane, cross)));
    return *channels_.back();
}

EventId
ShardChannel::send(Cycles when, TapId label, EventFn fn)
{
    return kern->channelSend(*this, when, label, std::move(fn));
}

EventId
ShardedEventKernel::channelSend(ShardChannel &ch, Cycles when,
                                TapId label, EventFn fn)
{
    const int dst = ch.dstLane();
    const int cur = currentExecLane();
    if (cur < 0 || cur == dst) {
        // Setup/coordinator context (single-threaded) or a same-lane
        // send: exactly the serial kernel's scheduleAt. The declared
        // latency is still a contract: checked here too (same-lane,
        // the destination clock IS the sender's clock), so a world
        // that undershoots a channel's latency fails in the default
        // serial configuration instead of only once the endpoints
        // land on different lanes. Setup-context sends (cur < 0)
        // have no sender clock to check against.
        VIRTSIM_ASSERT(cur < 0 ||
                           when >= lane(dst).now() + ch.lookahead(),
                       "channel '", ch.name(), "' send at ", when,
                       " violates declared lookahead ", ch.lookahead(),
                       " from lane time ", lane(dst).now());
        return lane(dst).scheduleAt(when, label, std::move(fn));
    }
    EventQueue &src = lane(cur);
    VIRTSIM_ASSERT(when >= src.now() + ch.lookahead(),
                   "channel '", ch.name(), "' send at ", when,
                   " violates declared lookahead ", ch.lookahead(),
                   " from lane time ", src.now());
    Mailbox &mb = mailbox(cur, dst);
    // First message into this mailbox this round: record the
    // destination so the merge visits exactly the pairs that
    // buffered traffic. Mailboxes are fully drained every round, so
    // empty-before-push is equivalent to first-touch — the list never
    // holds duplicates.
    if (mb.msgs.empty())
        touchedDst_[static_cast<std::size_t>(cur)].push_back(dst);
    mb.msgs.push_back(Pending{when, label, std::move(fn)});
    return invalidEventId;
}

Cycles
ShardedEventKernel::run()
{
    // An attached probe needs the round loop even at one lane, so
    // barrier-driven timeline sampling and observer flushing behave
    // identically at every VIRTSIM_SHARDS; likewise the shard
    // profiler, which measures the round loop.
    if (laneCount() == 1 && !probe_ && !profileEnabled_) {
        // Mark the lane even on the passthrough path so channel sends
        // from inside events check their lookahead contract in the
        // serial configuration too.
        LaneScope scope(0);
        return lane(0).run();
    }
    return runRounds(false, 0);
}

Cycles
ShardedEventKernel::runUntil(Cycles limit)
{
    if (laneCount() == 1 && !probe_ && !profileEnabled_) {
        LaneScope scope(0);
        return lane(0).runUntil(limit);
    }
    return runRounds(true, limit);
}

bool
ShardedEventKernel::step()
{
    VIRTSIM_ASSERT(laneCount() == 1,
                   "step() is single-lane only; multi-lane execution ",
                   "is round-based");
    LaneScope scope(0);
    return lane(0).step();
}

void
ShardedEventKernel::refreshLane(int i)
{
    const auto ii = static_cast<std::size_t>(i);
    const Cycles t = lane(i).nextEventTime();
    nextEv_[ii] = t;
    const bool live = t != noPendingEvent;
    if (live && !laneLive_[ii]) {
        laneLive_[ii] = 1;
        livePos_[ii] = static_cast<int>(liveLanes_.size());
        liveLanes_.push_back(i);
    } else if (!live && laneLive_[ii]) {
        const int hole = livePos_[ii];
        const int back = liveLanes_.back();
        liveLanes_[static_cast<std::size_t>(hole)] = back;
        livePos_[static_cast<std::size_t>(back)] = hole;
        liveLanes_.pop_back();
        laneLive_[ii] = 0;
        livePos_[ii] = -1;
    }
}

Cycles
ShardedEventKernel::runRounds(bool bounded, Cycles limit)
{
    using clock = std::chrono::steady_clock;
    if (edgesDirty_)
        rebuildEdges();

    // Barrier-driven timeline sampling: the coordinator samples every
    // gauge at period-aligned simulated instants between rounds, with
    // every lane's horizon capped at the next sampling instant so no
    // lane ever runs past an unsampled tick. A sample at instant a is
    // taken after all events below a and before any event at or above
    // a — a time-only rule, so the sampled instants and values are a
    // pure function of the model, identical at every lane count.
    TimelineSampler *const tl =
        (probe_ && probe_->timeline.enabled()) ? &probe_->timeline
                                               : nullptr;
    const Cycles period = tl ? tl->period() : 0;
    Cycles tickAt = 0;
    if (tl) {
        const Cycles t0 = now();
        tickAt = (t0 % period == 0) ? t0
                                    : ((t0 / period) + 1) * period;
    }

    const bool prof = profileEnabled_;
    clock::time_point wallStart;
    if (prof) {
        wallStart = clock::now();
        // Snapshot the channel names now: every channel relevant to
        // this run is declared by the time it starts.
        profile_.critChannel = lookChannel;
    }

    const int n = laneCount();
    const bool parallelAllowed = !inSweepTask();

    // Reconcile the lane caches with whatever happened since the last
    // run: setup-context scheduleAt, cancellations, direct edits of a
    // lane queue.
    // From here on only merged messages and the lanes' own execution
    // mutate the queues, and both refresh the cache at the spot.
    for (int i = 0; i < n; ++i)
        refreshLane(i);
    // Stale from the previous run; its sends were all drained before
    // that run could end.
    dispatch_.clear();
    Cycles front = 0;
    for (int i = 0; i < n; ++i)
        front = std::max(front, lane(i).now());

    for (;;) {
        ++st.rounds;

        // 1. Deterministic merge: only lanes dispatched last round
        //    can have sent, and each privately recorded the
        //    destinations it buffered a first message for. dispatch_
        //    is ascending and each source's destination list is
        //    sorted here, so mailboxes drain in (src asc, dst asc,
        //    send order) at any lane count and any thread timing.
        //    Message times never precede the
        //    destination lane's clock (safety argument in the
        //    header), so these scheduleAt calls cannot go backwards.
        for (int s : dispatch_) {
            auto &td = touchedDst_[static_cast<std::size_t>(s)];
            if (td.empty())
                continue;
            std::sort(td.begin(), td.end());
            for (int d : td) {
                Mailbox &mb = mailbox(s, d);
                st.lanes[static_cast<std::size_t>(d)].msgsIn +=
                    mb.msgs.size();
                st.crossMsgs += mb.msgs.size();
                for (Pending &p : mb.msgs) {
                    lane(d).scheduleAt(p.when, p.label,
                                       std::move(p.fn));
                }
                mb.msgs.clear();
                refreshLane(d);
            }
            td.clear();
        }

        // 2. Horizons, over the live set only.
        Cycles minNext = noPendingEvent;
        for (int i : liveLanes_)
            minNext = std::min(minNext,
                               nextEv_[static_cast<std::size_t>(i)]);
        if (minNext == noPendingEvent)
            break; // drained, and the drain above emptied all mail
        if (bounded && minNext > limit)
            break;

        // Sample every aligned instant the whole simulation has now
        // passed. All events below tickAt have fired (horizons were
        // capped there) and the earliest pending event is at or above
        // it, so gauges read exactly the model state at that instant.
        if (tl) {
            while (tickAt <= minNext &&
                   (!bounded || tickAt <= limit)) {
                tl->sampleTick(tickAt);
                tickAt += period;
            }
        }

        // The LBTS fixed point:
        //   N[i] = min(nextEv[i], min_j (N[j] + look[j][i]))
        // by worklist relaxation over the out-adjacency lists, seeded
        // from the lanes that hold events. Min-plus relaxation with
        // positive edge weights has a unique least fixed point, so
        // the result does not depend on the relaxation order
        // (verifyHorizons recomputes it by brute force to check).
        // An empty lane is NOT unconstraining: a message can wake it
        // and make it send, so relaxation lowers its bound from
        // noBound through its in-edges, covering transitive chains
        // and cycles through idle lanes. bound_ holds noBound
        // everywhere between rounds; touchedBound_ undoes this
        // round's writes in O(work).
        work_.clear();
        std::size_t workHead = 0;
        for (int i : liveLanes_) {
            const auto ii = static_cast<std::size_t>(i);
            bound_[ii] = nextEv_[ii];
            touchedBound_.push_back(i);
            inWork_[ii] = 1;
            work_.push_back(i);
        }
        while (workHead < work_.size()) {
            const int j = work_[workHead++];
            inWork_[static_cast<std::size_t>(j)] = 0;
            const Cycles bj = bound_[static_cast<std::size_t>(j)];
            for (const LaneEdge &e :
                 outEdges_[static_cast<std::size_t>(j)]) {
                const auto pp = static_cast<std::size_t>(e.peer);
                const Cycles c = satAdd(bj, e.look);
                if (c < bound_[pp]) {
                    if (bound_[pp] == noBound)
                        touchedBound_.push_back(e.peer);
                    bound_[pp] = c;
                    if (!inWork_[pp]) {
                        inWork_[pp] = 1;
                        work_.push_back(e.peer);
                    }
                }
            }
        }

        // Lane i may execute strictly below the earliest time any
        // other lane could still send to it. Only live lanes need a
        // target: an empty lane has nothing to run below any target,
        // and is precisely the lane the elision skips.
        dispatch_.clear();
        for (int i : liveLanes_) {
            const auto ii = static_cast<std::size_t>(i);
            Cycles target = noBound;
            for (const LaneEdge &e : inEdges_[ii])
                target = std::min(
                    target,
                    satAdd(bound_[static_cast<std::size_t>(e.peer)],
                           e.look));
            if (bounded && (target == noBound || target > limit))
                target = limit + 1;
            // Never run past an unsampled timeline tick. The lane
            // holding minNext keeps target > minNext either way
            // (tickAt was advanced past minNext above), so progress
            // survives the cap.
            if (tl && tickAt < target)
                target = tickAt;
            roundTarget[ii] = target;
            if (nextEv_[ii] < target) {
                dispatch_.push_back(i);
                dispatched_[ii] = 1;
            }
        }
        // liveLanes_ is unordered (swap-erase set); the merge next
        // round needs sources ascending.
        std::sort(dispatch_.begin(), dispatch_.end());

        if (crossCheck_)
            verifyHorizons(bounded, limit, tl, tickAt);

        // Positive cross-lane lookaheads guarantee the earliest lane
        // always clears its horizon; no runnable lane while events
        // remain in bounds means a modelling bug (e.g. an undeclared
        // channel).
        VIRTSIM_ASSERT(!dispatch_.empty(),
                       "sharded kernel made no progress in a round ",
                       "(undeclared cross-lane edge?)");

        // 3. Execute — runnable lanes only; an idle lane is neither
        //    handed to a worker nor counted below. The crew only
        //    earns its keep when two or more lanes have work.
        const bool parallel =
            parallelAllowed && dispatch_.size() >= 2;
        clock::time_point roundStart;
        if (prof)
            roundStart = clock::now();
        executePhase(parallel);
        if (parallel)
            ++st.parallelRounds;
        st.laneDispatches += dispatch_.size();
        const std::uint64_t roundNs =
            prof ? elapsedNs(roundStart, clock::now()) : 0;

        // 4. Account. Stall = a live lane that was not dispatched
        //    although its next event lies inside the bound and below
        //    any timeline tick cap: its horizon alone blocked it.
        //    Lane stats are a function of the horizons, so they match
        //    at any thread count.
        std::size_t firedTotal = 0;
        for (int i : dispatch_)
            front = std::max(front, lane(i).now());
        for (int i : dispatch_) {
            const auto ii = static_cast<std::size_t>(i);
            LaneStats &ls = st.lanes[ii];
            firedTotal += roundFired[ii];
            ls.events += roundFired[ii];
            ++ls.advances;
            ls.maxHorizonLag =
                std::max(ls.maxHorizonLag, front - lane(i).now());
            if (prof) {
                ShardProfile::Lane &pl = profile_.lanes[ii];
                pl.busyNs += roundBusyNs[ii];
                pl.events += roundFired[ii];
            }
        }
        for (int i : liveLanes_) {
            const auto ii = static_cast<std::size_t>(i);
            if (dispatched_[ii])
                continue;
            if (bounded && nextEv_[ii] > limit)
                continue;
            if (tl && nextEv_[ii] >= tickAt)
                continue;
            LaneStats &ls = st.lanes[ii];
            ++ls.stalls;
            ls.maxHorizonLag =
                std::max(ls.maxHorizonLag, front - lane(i).now());
            if (prof) {
                ShardProfile::Lane &pl = profile_.lanes[ii];
                ++pl.stallRounds;
                // The lane never ran, so the whole round was wait.
                pl.stallNs += roundNs;
                // Critical-channel attribution: the in-edge whose
                // bound was the binding horizon limit. inEdges_ keeps
                // sources ascending, so ties go to the lowest source
                // lane.
                Cycles best = noBound;
                int bestJ = -1;
                for (const LaneEdge &e : inEdges_[ii]) {
                    const Cycles c = satAdd(
                        bound_[static_cast<std::size_t>(e.peer)],
                        e.look);
                    if (c < best) {
                        best = c;
                        bestJ = e.peer;
                    }
                }
                if (bestJ >= 0 && best == roundTarget[ii]) {
                    ++profile_.critRounds
                          [ii * static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(bestJ)];
                }
            }
        }
        VIRTSIM_ASSERT(firedTotal > 0,
                       "sharded kernel made no progress in a round ",
                       "(undeclared cross-lane edge?)");

        // Undo this round's scratch writes and re-read the lanes that
        // ran; nothing else can have changed.
        for (int i : touchedBound_)
            bound_[static_cast<std::size_t>(i)] = noBound;
        touchedBound_.clear();
        for (int i : dispatch_) {
            dispatched_[static_cast<std::size_t>(i)] = 0;
            refreshLane(i);
        }

        // Stream this round's trace records to the observer in
        // canonical merged order. Single-threaded here between
        // barriers; a no-op without a deferred observer.
        if (probe_)
            probe_->trace.flushObserver();
    }

    // Records stamped since the last completed round (or before a
    // run that drained immediately) still need delivering.
    if (probe_)
        probe_->trace.flushObserver();

    if (prof) {
        profile_.wallNs += elapsedNs(wallStart, clock::now());
        profile_.rounds = st.rounds;
        profile_.parallelRounds = st.parallelRounds;
    }

    if (bounded) {
        for (int i = 0; i < n; ++i)
            lane(i).advanceClockTo(limit);
        return limit;
    }
    return now();
}

void
ShardedEventKernel::verifyHorizons(bool bounded, Cycles limit,
                                   TimelineSampler *tl,
                                   Cycles tickAt) const
{
    // Gauss-Seidel over the full lane x lane matrix until nothing
    // moves: O(lanes^2) per sweep, so a check, never the loop.
    const int n = laneCount();
    std::vector<Cycles> bound(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        bound[static_cast<std::size_t>(i)] =
            nextEv_[static_cast<std::size_t>(i)];
    for (bool changed = true; changed;) {
        changed = false;
        for (int i = 0; i < n; ++i) {
            Cycles b = bound[static_cast<std::size_t>(i)];
            for (int j = 0; j < n; ++j) {
                if (j == i)
                    continue;
                const Cycles look =
                    minLook[static_cast<std::size_t>(j) *
                                lanes_.size() +
                            static_cast<std::size_t>(i)];
                if (look == noBound)
                    continue;
                b = std::min(
                    b, satAdd(bound[static_cast<std::size_t>(j)],
                              look));
            }
            if (b < bound[static_cast<std::size_t>(i)]) {
                bound[static_cast<std::size_t>(i)] = b;
                changed = true;
            }
        }
    }
    for (int i = 0; i < n; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        // Untouched worklist entries sit at noBound ==
        // noPendingEvent, exactly where the brute-force iteration
        // leaves an unreachable empty lane.
        VIRTSIM_ASSERT(bound_[ii] == bound[ii],
                       "worklist LBTS bound for lane ", i, " (",
                       bound_[ii], ") != brute-force fixed point (",
                       bound[ii], ")");
        if (nextEv_[ii] == noPendingEvent)
            continue; // elided: no target computed, none needed
        Cycles target = noBound;
        for (int j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const Cycles look =
                minLook[static_cast<std::size_t>(j) * lanes_.size() +
                        ii];
            if (look == noBound)
                continue;
            target = std::min(
                target,
                satAdd(bound[static_cast<std::size_t>(j)], look));
        }
        if (bounded && (target == noBound || target > limit))
            target = limit + 1;
        if (tl && tickAt < target)
            target = tickAt;
        VIRTSIM_ASSERT(roundTarget[ii] == target,
                       "round target for lane ", i, " (",
                       roundTarget[ii], ") != brute-force target (",
                       target, ")");
    }
}

void
ShardedEventKernel::enableShardProfile()
{
    profileEnabled_ = true;
    const std::size_t n = lanes_.size();
    profile_ = ShardProfile{};
    profile_.lanes.assign(n, ShardProfile::Lane{});
    profile_.critRounds.assign(n * n, 0);
    profile_.critChannel.assign(n * n, std::string());
}

void
ShardedEventKernel::runLane(int i)
{
    const auto ii = static_cast<std::size_t>(i);
    LaneScope scope(i);
    if (profileEnabled_) {
        const auto t0 = std::chrono::steady_clock::now();
        roundFired[ii] = lane(i).runBefore(roundTarget[ii]);
        roundBusyNs[ii] =
            elapsedNs(t0, std::chrono::steady_clock::now());
        return;
    }
    roundFired[ii] = lane(i).runBefore(roundTarget[ii]);
}

void
ShardedEventKernel::drainDispatch()
{
    const std::size_t total = dispatch_.size();
    for (;;) {
        const std::size_t k =
            dispatchNext_.fetch_add(1, std::memory_order_relaxed);
        if (k >= total)
            return;
        runLane(dispatch_[k]);
    }
}

void
ShardedEventKernel::executePhase(bool parallel)
{
    if (!parallel) {
        for (int i : dispatch_)
            runLane(i);
        return;
    }

    startCrew();
    dispatchNext_.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(crewMutex);
        crewRunning = static_cast<int>(crew.size());
        ++crewGen;
    }
    crewStart.notify_all();
    // The coordinator thread pulls lanes alongside the crew instead
    // of idling at the barrier.
    drainDispatch();
    // Wait for every worker, not merely for the list to drain: a
    // worker between its last pop and its check-out must not overlap
    // the coordinator mutating next round's dispatch state.
    std::unique_lock<std::mutex> lock(crewMutex);
    crewDone.wait(lock, [this] { return crewRunning == 0; });
}

void
ShardedEventKernel::startCrew()
{
    if (!crew.empty())
        return;
    const int n = laneCount();
    const unsigned hwRaw = std::thread::hardware_concurrency();
    const int hw = hwRaw ? static_cast<int>(hwRaw) : 1;
    // Sized by the host, not the lane count: a 256-lane fleet on an
    // 8-way box gets 7 workers plus the coordinator, not 255 idle
    // threads. At least one worker so parallel rounds exercise real
    // cross-thread execution even on a single-core host.
    const int workers = std::max(1, std::min(n, hw) - 1);
    crew.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        crew.emplace_back([this] { workerLoop(); });
}

void
ShardedEventKernel::stopCrew()
{
    if (crew.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(crewMutex);
        crewQuit = true;
        ++crewGen;
    }
    crewStart.notify_all();
    for (std::thread &t : crew)
        t.join();
    crew.clear();
    crewQuit = false;
}

void
ShardedEventKernel::workerLoop()
{
    std::uint64_t seenGen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(crewMutex);
            crewStart.wait(lock, [this, seenGen] {
                return crewQuit || crewGen != seenGen;
            });
            if (crewQuit)
                return;
            seenGen = crewGen;
        }
        drainDispatch();
        bool last = false;
        {
            std::lock_guard<std::mutex> lock(crewMutex);
            last = --crewRunning == 0;
        }
        if (last)
            crewDone.notify_one();
    }
}

Cycles
ShardedEventKernel::now() const
{
    Cycles t = 0;
    for (const auto &q : lanes_)
        t = std::max(t, q->now());
    return t;
}

void
ShardedEventKernel::publishStats(MetricsRegistry &metrics) const
{
    MetricsDomain &mach = metrics.machine();
    const auto set = [&mach](const std::string &name,
                             std::uint64_t v) {
        Counter &c = mach.counter(internTap(name));
        c.reset();
        c.inc(v);
    };
    set("shard.lanes", static_cast<std::uint64_t>(laneCount()));
    set("shard.rounds", st.rounds);
    set("shard.parallel_rounds", st.parallelRounds);
    set("shard.cross_msgs", st.crossMsgs);
    set("shard.lane_dispatches", st.laneDispatches);
    std::uint64_t active = 0;
    for (std::size_t i = 0; i < st.lanes.size(); ++i) {
        const LaneStats &ls = st.lanes[i];
        // A lane that never held an event, never stalled and never
        // received a message has nothing to say; at fleet scale most
        // lanes of a generously sized kernel are exactly that, and
        // 256 all-zero six-counter blocks would drown the export.
        if (ls.events == 0 && ls.advances == 0 && ls.stalls == 0 &&
            ls.msgsIn == 0 && ls.maxHorizonLag == 0)
            continue;
        ++active;
        const std::string p = "shard.lane" + std::to_string(i);
        set(p + ".events", ls.events);
        set(p + ".advances", ls.advances);
        set(p + ".stalls", ls.stalls);
        set(p + ".msgs_in", ls.msgsIn);
        set(p + ".horizon_lag_max", ls.maxHorizonLag);
        // Events per advancing round, scaled by 100 to survive the
        // integer counter (ISSUE satellite: events/advance).
        set(p + ".events_per_advance_x100",
            ls.advances == 0 ? 0 : ls.events * 100 / ls.advances);
    }
    set("shard.lanes_active", active);
}

void
ShardedEventKernel::registerGauges(TimelineSampler &tl)
{
    // Aggregates first: these stay a handful of series at any lane
    // count, so fleet-scale kernels keep shard health on the
    // timeline without per-lane flooding.
    tl.addGauge("shard.lanes_live", [this] {
        std::int64_t live = 0;
        for (const auto &q : lanes_)
            live += q->pending() > 0 ? 1 : 0;
        return live;
    });
    tl.addGauge("shard.stall_total", [this] {
        std::uint64_t s = 0;
        for (const LaneStats &ls : st.lanes)
            s += ls.stalls;
        return static_cast<std::int64_t>(s);
    });
    tl.addGauge("shard.lag_max", [this] {
        const Cycles front = now();
        Cycles lag = 0;
        for (const auto &q : lanes_)
            lag = std::max(lag, front - q->now());
        return static_cast<std::int64_t>(lag);
    });
    if (laneCount() > perLaneGaugeCap)
        return;
    for (int i = 0; i < laneCount(); ++i) {
        const std::string p = "shard.lane" + std::to_string(i);
        EventQueue *q = lanes_[static_cast<std::size_t>(i)].get();
        tl.addGauge(p + ".depth", [q] {
            return static_cast<std::int64_t>(q->pending());
        });
        tl.addGauge(p + ".lag", [this, q] {
            return static_cast<std::int64_t>(now() - q->now());
        });
        LaneStats *ls = &st.lanes[static_cast<std::size_t>(i)];
        tl.addGauge(p + ".stalls", [ls] {
            return static_cast<std::int64_t>(ls->stalls);
        });
    }
}

} // namespace virtsim
