/**
 * @file
 * CoreGroup: the simulator's run loop, for one core and for N.
 *
 * A group ticks the shared memory hierarchy exactly once per cycle,
 * then runs every unfinished core's private pipeline in core-index
 * order.  Skip-ahead works per machine: a cycle is dead only when
 * *no* core made progress, and the jump target is the earliest of
 * the shared hierarchy's and every unfinished core's advertised
 * events -- so a cross-core WAIT release (which always rides on some
 * core's completion, i.e. on progress) can never be jumped over.
 * Each core's dead-tick stall counters are replayed individually,
 * and the shared hierarchy's refused retries once per jump.
 *
 * Within the cycles it ticks, skip-ahead also lets an idle core
 * sleep: after a tick without progress (and without a refused load)
 * the group skips the core's pipeline until a completion addressed
 * to it, one of its own timed events, cross-core WAIT counter exits
 * that open the gate of a WAIT at its ROB head, or a degrade release
 * by its checks wakes it; the core then replays the skipped cycles'
 * stall counters (DESIGN.md section 10 item 6).  A sleeper's checks run only from
 * their next firing cycle.  Reference ticking runs every core every
 * cycle.  A one-core machine is a group of one; tests/golden pins
 * its results.
 */

#ifndef EDE_PIPELINE_RUN_LOOP_HH
#define EDE_PIPELINE_RUN_LOOP_HH

#include <vector>

#include "pipeline/core.hh"

namespace ede {

/** Lock-step scheduler for the cores of one System. */
class CoreGroup
{
  public:
    /**
     * @param cores all cores of one System, index order; every core
     *              must share one MemSystem and one resolved ticking
     *              mode, and must not have run yet.
     */
    explicit CoreGroup(std::vector<OoOCore *> cores);

    /**
     * Run core i's trace on core i until every core finishes (or any
     * core's watchdog/maxCycles/EDK check stops the run -- check each
     * core's simError()).  Single-shot.  A non-null @p prof gets the
     * run's wall time, sampled phase estimates and skip counters;
     * profiling never changes simulated behaviour.  @return the
     * cycle the last core finished; each core's own CoreStats::cycles
     * records its individual finish cycle.
     */
    Cycle run(const std::vector<const Trace *> &traces,
              HostProfile *prof);

  private:
    std::vector<OoOCore *> cores_;
};

} // namespace ede

#endif // EDE_PIPELINE_RUN_LOOP_HH
