/**
 * @file
 * CoreGroup: the N-core generalization of OoOCore's run loop.
 *
 * A group ticks the shared memory hierarchy exactly once per cycle,
 * then runs every unfinished core's private pipeline in core-index
 * order.  The skip-ahead machinery generalizes per-core: a cycle is
 * dead only when *no* core made progress, and the jump target is the
 * earliest of every unfinished core's advertised events -- so a
 * cross-core WAIT release (which always rides on some core's
 * completion, i.e. on progress) can never be jumped over.  Each
 * core's dead-tick stall counters are replayed individually through
 * the helper the single-core loop uses, and the shared hierarchy's
 * refused retries once per jump.
 *
 * A group of one core reproduces OoOCore::run(trace) bit-identically:
 * the loop body is the same sequence of calls on the same state, and
 * the differential gate in bench/fig_scaling holds the two paths
 * against each other.  OoOCore::run keeps its own copy of the
 * single-core loop, sharing only the dead-tick snapshot and replay
 * helpers, so that gate compares two loop implementations.
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
     * core's simError()).  Single-shot.  @return the cycle the last
     * core finished; each core's own CoreStats::cycles records its
     * individual finish cycle.
     */
    Cycle run(const std::vector<const Trace *> &traces);

  private:
    std::vector<OoOCore *> cores_;
};

} // namespace ede

#endif // EDE_PIPELINE_RUN_LOOP_HH
