/**
 * @file
 * The experiment runner: plan in, keyed results out.
 *
 * Ties the layer together: each plan point is fingerprinted, looked
 * up in the result cache (when one is configured), and simulated by
 * a fresh WorkloadHarness on a scheduler worker only on a miss.
 * Results come back in plan order, so `jobs=N` is bit-identical to
 * `jobs=1` and a warm cache is bit-identical to a cold one.
 *
 * With `isolation.isolate` the plan runs through exp::runIsolated:
 * each miss is executed in a forked worker bounded by a wall-clock
 * timeout and an address-space cap; a crash, hang, OOM or structured
 * SimError in one cell is classified, retried per the
 * transient-failure policy, and finally *quarantined* -- the sweep
 * still completes, the surviving cells are bit-identical to a
 * non-isolated run, and the quarantined cells are reported in
 * ExperimentResults::failures().  A sweep journal (exp/journal.hh)
 * makes the run resumable: every durable cell (fresh, cached or
 * quarantined) is appended as it lands, and `resume` replays
 * compatible records so a SIGKILLed campaign picks up from the last
 * durable cell.
 */

#ifndef EDE_EXP_RUNNER_HH
#define EDE_EXP_RUNNER_HH

#include <string>

#include "exp/plan.hh"
#include "exp/result.hh"
#include "exp/worker.hh"

namespace ede {
namespace exp {

/** How to execute a plan. */
struct RunnerOptions
{
    /** Parallel jobs; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;

    /** Result-cache directory; empty disables the disk cache. */
    std::string cacheDir;

    /** Print the one-line `[exp] ...` run summary on completion. */
    bool printSummary = true;

    /** Forked workers, journal and chaos hook for cache misses. */
    Isolation isolation;
};

/** Execute every point of @p plan. */
ExperimentResults runPlan(const ExperimentPlan &plan,
                          const RunnerOptions &options = {});

/** The journal identity of @p plan (hash of every cell fingerprint). */
std::uint64_t planSweepId(const ExperimentPlan &plan);

} // namespace exp
} // namespace ede

#endif // EDE_EXP_RUNNER_HH
