/**
 * @file
 * Thread-pool scheduler for independent simulation jobs.
 *
 * Every WorkloadHarness builds its own System, so the experiment
 * grids (app x config sweeps, ablation axes, crash-scenario cells)
 * are embarrassingly parallel.  The scheduler exploits that while
 * keeping results *deterministic*: outputs are collected by job
 * index, never by completion order, so `jobs=8` is bit-identical to
 * `jobs=1`.
 *
 * A job that throws stops the sweep: no *new* jobs start, in-flight
 * jobs drain, and the lowest-index captured exception is rethrown on
 * the calling thread.  Jobs that must not end the sweep classify
 * their own failures (exp::runIsolated).
 *
 * With jobs=1 everything runs inline on the calling thread in index
 * order -- exactly the old serial behaviour.
 */

#ifndef EDE_EXP_SCHEDULER_HH
#define EDE_EXP_SCHEDULER_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace ede {
namespace exp {

/** Runs index-addressed jobs across a bounded set of worker threads. */
class Scheduler
{
  public:
    /** @param jobs worker count; 0 means hardware concurrency. */
    explicit Scheduler(unsigned jobs = 0);

    /** Resolved worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** The machine's hardware concurrency (>= 1). */
    static unsigned hardwareJobs();

    /**
     * Run fn(0) .. fn(n-1), each exactly once, across the workers.
     * Once a job throws no new job starts; blocks until the started
     * jobs finish, then rethrows the lowest-index captured exception.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn) const;

    /**
     * As parallelFor, collecting fn(i) into slot i of the returned
     * vector (deterministic order independent of scheduling).
     */
    template <typename T>
    std::vector<T>
    map(std::size_t n, const std::function<T(std::size_t)> &fn) const
    {
        std::vector<std::optional<T>> slots(n);
        parallelFor(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> out;
        out.reserve(n);
        for (std::optional<T> &slot : slots)
            out.push_back(std::move(*slot));
        return out;
    }

  private:
    unsigned jobs_;
};

} // namespace exp
} // namespace ede

#endif // EDE_EXP_SCHEDULER_HH
