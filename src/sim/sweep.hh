/**
 * @file
 * Deterministic parallel sweep runner over a persistent worker pool.
 *
 * The large experiment sweeps — Figure 4's twelve workloads x five
 * configurations, the ablation grids, the Table II microbenchmark
 * matrix — are embarrassingly parallel: every cell builds its own
 * Testbed with its own EventQueue and PRNG and shares nothing with
 * its neighbors. parallelSweep() farms such cells out to a pool of
 * host threads while keeping the output *bit-identical* to a serial
 * run:
 *
 *  - tasks are handed out by an atomic index (no work stealing, no
 *    reordering queues), and
 *  - each task commits its result into results[i] for input index i,
 *    so the assembled vector is independent of execution
 *    interleaving — any scheduling of the same tasks yields the same
 *    output bytes.
 *
 * Worker threads are created lazily on the first parallel sweep and
 * persist for the life of the process: back-to-back sweeps (the
 * bench harness, parameter grids, repeated Figure 4 runs) reuse the
 * same threads instead of paying spawn/join per call. A sweep that
 * throws sets an abort flag so the remaining task indices are
 * abandoned rather than drained; the first exception is rethrown on
 * the calling thread.
 *
 * Thread count comes from the VIRTSIM_JOBS environment variable
 * (default: std::thread::hardware_concurrency). VIRTSIM_JOBS=1
 * forces the plain serial path — same code the harness always ran —
 * which is also used automatically for single-item sweeps and for
 * sweeps nested inside a sweep task.
 */

#ifndef VIRTSIM_SIM_SWEEP_HH
#define VIRTSIM_SIM_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace virtsim {

class MetricsRegistry;

/** Worker-thread count a sweep will use: VIRTSIM_JOBS if set (must
 *  be a positive integer), else hardware_concurrency, else 1. Read
 *  per call so tests and benches can adjust the environment. */
int sweepJobs();

/**
 * Counters describing the persistent sweep pool, for tests and for
 * publishing into a MetricsRegistry. All values are cumulative over
 * the life of the process.
 */
struct SweepPoolStats
{
    /** Persistent worker threads currently alive (never shrinks). */
    std::size_t threads = 0;
    /** runIndexed() calls that dispatched through the pool. */
    std::uint64_t parallelSweeps = 0;
    /** runIndexed() calls that took the serial path. */
    std::uint64_t serialSweeps = 0;
    /** Tasks completed without throwing (pool and serial paths). */
    std::uint64_t tasksExecuted = 0;
    /** Worker job pickups (how often a sleeping worker was handed a
     *  sweep; compare against parallelSweeps to see reuse). */
    std::uint64_t workerWakes = 0;
};

/** Snapshot of the pool counters. */
SweepPoolStats sweepPoolStats();

/** True on a thread currently executing a sweep task. Nested
 *  parallelism guards (the sweep runner itself, the sharded event
 *  kernel) use this to fall back to their serial paths — which are
 *  byte-identical by construction — instead of oversubscribing the
 *  host from inside a pool worker. */
bool inSweepTask();

/**
 * Publish the pool counters into machine-domain metrics
 * ("sweep.pool.threads", "sweep.pool.parallel_sweeps", ...).
 * Explicit opt-in: pool totals are process-wide and scheduling
 * dependent, so they are never mixed into per-testbed snapshots
 * (which must stay byte-identical across VIRTSIM_JOBS).
 */
void publishSweepPoolStats(MetricsRegistry &metrics);

namespace sweep_detail {

/** Run task(0..n-1), spreading across up to jobs pool workers;
 *  serial when jobs <= 1. A throwing task aborts the remaining
 *  indices; the first exception is rethrown after the sweep quiesces. */
void runIndexed(std::size_t n,
                const std::function<void(std::size_t)> &task,
                int jobs);

} // namespace sweep_detail

/**
 * Evaluate fn(0), ..., fn(n-1) — each must be independent of the
 * others — and return their results in input order.
 *
 * Result types must be default-constructible and movable. The output
 * is byte-identical for every jobs value, 1 included.
 */
template <typename Fn>
auto
parallelSweepIndexed(std::size_t n, Fn fn, int jobs = sweepJobs())
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using Result = decltype(fn(std::size_t{}));
    std::vector<Result> results(n);
    sweep_detail::runIndexed(
        n, [&](std::size_t i) { results[i] = fn(i); }, jobs);
    return results;
}

/**
 * Map fn over items in parallel; results come back in item order.
 */
template <typename Item, typename Fn>
auto
parallelSweep(const std::vector<Item> &items, Fn fn,
              int jobs = sweepJobs())
    -> std::vector<decltype(fn(items.front()))>
{
    return parallelSweepIndexed(
        items.size(), [&](std::size_t i) { return fn(items[i]); },
        jobs);
}

} // namespace virtsim

#endif // VIRTSIM_SIM_SWEEP_HH
