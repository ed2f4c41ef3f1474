/**
 * @file
 * Explicit cross-shard channels for the sharded event kernel.
 *
 * Every cross-CPU interaction in the simulated machine already flows
 * through a small set of mechanisms with *nonzero modelled latency*:
 * IPIs (CostModel::ipiFlight), GIC list-register programming followed
 * by guest ack, the 10 GbE wire (Wire::oneWayLatency), and backend
 * worker wakeups. A ShardChannel names one such mechanism, declares
 * its minimum latency, and becomes the only way the owning component
 * schedules work across shard boundaries.
 *
 * The declared minimum latency is the *lookahead* of conservative
 * parallel discrete-event simulation (Chandy-Misra-Bryant family): if
 * every message from shard A to shard B arrives at least L cycles
 * after the event that sent it, then B can safely execute all events
 * earlier than clock(A) + L without waiting for A. The sharded kernel
 * (sim/shard.hh) aggregates the per-channel declarations into a
 * lane-to-lane lookahead matrix and computes each lane's safe horizon
 * from it.
 *
 * Sends through a channel whose endpoints live on the same lane
 * degenerate to a plain EventQueue::scheduleAt on that lane — exactly
 * the serial kernel's behavior, byte for byte. Cross-lane sends are
 * buffered in per-lane-pair mailboxes and merged deterministically at
 * the next synchronization round. Channel declarations are therefore
 * free when the simulation is not actually partitioned
 * (VIRTSIM_SHARDS=1, the default).
 */

#ifndef VIRTSIM_SIM_CHANNEL_HH
#define VIRTSIM_SIM_CHANNEL_HH

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace virtsim {

class ShardedEventKernel;

/**
 * Identifier of a shard: a partition of the simulated world whose
 * components share one event lane. Convention (hw/machine.cc,
 * core/testbed.cc): shard 0 holds the device/wire/client side, shard
 * 1+i holds PhysicalCpu i. Several shards may map onto one lane
 * (laneOf); components coupled through zero-latency shared state must
 * map to the same lane.
 */
using ShardId = int;

/** Shard 0: NIC, wire, client model, timers. */
inline constexpr ShardId deviceShard = 0;

/** Wildcard source for channels any shard may send through (IPIs:
 *  the sender is whichever CPU executes the send). */
inline constexpr ShardId anyShard = -1;

/** Shard of PhysicalCpu `cpu` under the standard assignment. */
constexpr ShardId
cpuShard(PcpuId cpu)
{
    return 1 + cpu;
}

/**
 * One directed lane-to-lane edge of the channel graph, as aggregated
 * by the kernel from every channel declaration: `peer` is the other
 * endpoint's lane and `look` the tightest declared lookahead on the
 * edge. The kernel keeps per-lane in/out adjacency lists of these so
 * the per-round LBTS propagation walks O(edges declared), not the
 * full lane × lane matrix — the matrix is only the build-time
 * aggregation structure, never the per-round working set.
 */
struct LaneEdge
{
    int peer;
    Cycles look;
};

/**
 * One declared cross-shard edge. Obtained from
 * ShardedEventKernel::channel(); never constructed directly. Sends
 * are deterministic for a fixed workload regardless of how shards map
 * to lanes or threads.
 */
class ShardChannel
{
  public:
    ShardChannel(const ShardChannel &) = delete;
    ShardChannel &operator=(const ShardChannel &) = delete;

    /**
     * Schedule fn at absolute time `when` on the destination shard's
     * lane.
     * @pre when is at least the sending lane's current time plus
     *      lookahead() — the declared minimum latency is a contract,
     *      checked, not a hint.
     * @return the event id when the send was same-lane (cancellable,
     *         exactly scheduleAt); invalidEventId for cross-lane
     *         sends, which cannot be cancelled once in flight.
     */
    EventId
    send(Cycles when, EventFn fn)
    {
        return send(when, TapId(), std::move(fn));
    }

    /** Labeled variant; the label feeds the kernel profiler exactly
     *  as the labeled scheduleAt does. */
    EventId send(Cycles when, TapId label, EventFn fn);

    const std::string &name() const { return _name; }
    ShardId srcShard() const { return src; }
    ShardId dstShard() const { return dst; }

    /** Declared minimum latency (the conservative lookahead). */
    Cycles lookahead() const { return look; }

    /** Whether the endpoints resolved to different lanes (if not,
     *  every send is a plain same-lane scheduleAt). */
    bool crossLane() const { return _crossLane; }

    /** Lane messages through this channel arrive on. */
    int dstLane() const { return _dstLane; }

  private:
    friend class ShardedEventKernel;

    ShardChannel(ShardedEventKernel *kern, std::string name,
                 ShardId src, ShardId dst, Cycles look, int dstLane,
                 bool crossLane)
        : kern(kern), _name(std::move(name)), src(src), dst(dst),
          look(look), _dstLane(dstLane), _crossLane(crossLane)
    {
    }

    ShardedEventKernel *kern;
    std::string _name;
    ShardId src;
    ShardId dst;
    Cycles look;
    int _dstLane;
    bool _crossLane;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_CHANNEL_HH
