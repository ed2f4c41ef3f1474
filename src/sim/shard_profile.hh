/**
 * @file
 * Parallel-kernel profiler: where does the wall time of a sharded run
 * go, and which channel's lookahead is the scaling bottleneck?
 *
 * The sharded kernel (sim/shard) is a conservative-lookahead PDES:
 * every round each lane runs to a horizon derived from the other
 * lanes' next events plus the declared channel lookaheads. When a run
 * does not scale, the interesting question is rarely "how much work
 * per lane" (see shard.* metrics) but "what does each lane's wall
 * clock consist of" — executing events (busy), waiting at the barrier
 * for slower lanes (wait), or stalled with no runnable events because
 * an inbound channel's lookahead bounded its horizon below its next
 * event (stall). For stalls, the profiler attributes each stalled
 * round to the in-edge whose bound was binding — the *critical
 * channel*: tighten that channel's declared latency (or repartition)
 * and the run scales further.
 *
 * ShardedEventKernel fills this while running (host steady-clock
 * measurements, enabled via enableShardProfile() — zero overhead when
 * off); core/report renders the human summary and toJson() emits the
 * machine-readable export behind VIRTSIM_SHARD_PROFILE. Exports carry
 * host wall times and are therefore NOT covered by the byte-identity
 * guarantee the simulated-time exports meet.
 */

#ifndef VIRTSIM_SIM_SHARD_PROFILE_HH
#define VIRTSIM_SIM_SHARD_PROFILE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace virtsim {

struct ShardProfile
{
    struct Lane
    {
        std::uint64_t busyNs = 0;   ///< executing events
        std::uint64_t stallNs = 0;  ///< rounds spent with nothing runnable
        std::uint64_t events = 0;   ///< events fired
        std::uint64_t stallRounds = 0; ///< rounds this lane fired nothing
    };

    /** Per-lane splits; empty until the kernel arms the profiler. */
    std::vector<Lane> lanes;

    std::uint64_t wallNs = 0;  ///< whole-run wall time of the round loop
    std::uint64_t rounds = 0;
    std::uint64_t parallelRounds = 0;

    /** critRounds[dst * lanes.size() + src]: stalled rounds of `dst`
     *  whose binding horizon limit was the in-edge from `src`. */
    std::vector<std::uint64_t> critRounds;
    /** critChannel[dst * lanes.size() + src]: name of the channel
     *  whose declared lookahead forms that edge (the tightest one
     *  when several share the pair; empty if none declared). */
    std::vector<std::string> critChannel;

    bool enabled() const { return !lanes.empty(); }

    /** Barrier wait: wall time not spent busy or stalled. */
    std::uint64_t
    waitNs(std::size_t lane) const
    {
        const std::uint64_t used =
            lanes[lane].busyNs + lanes[lane].stallNs;
        return used < wallNs ? wallNs - used : 0;
    }

    /** Aggregate busy time across lanes. */
    std::uint64_t busyNsTotal() const;

    /** Lanes that ever ran an event or stalled — the rows toJson()
     *  emits. A fleet-scale kernel keeps spare lanes; their all-zero
     *  splits are elided from the export just as the coordinator
     *  elides them from the rounds. */
    std::size_t lanesProfiled() const;

    /** Total busy time over wall time: the mean number of lanes busy
     *  at once. Not a speedup — it ignores coordination cost and
     *  says nothing about how fast a serial run of the same work
     *  would be; only a measured serial run gives that. */
    double busyOverWall() const;

    /** Machine-readable export (schema "virtsim-shard-profile-3":
     *  sparse lane_detail — all-zero lanes elided, rows keyed by
     *  their "lane" field). */
    std::string toJson() const;
};

/** ShardProfile::toJson() to a file. @return false if the file failed
 *  to open (the failure is also logged). */
bool exportShardProfile(const std::string &path,
                        const ShardProfile &profile);

} // namespace virtsim

#endif // VIRTSIM_SIM_SHARD_PROFILE_HH
