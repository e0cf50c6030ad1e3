#include "pipeline/run_loop.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ede {

CoreGroup::CoreGroup(std::vector<OoOCore *> cores)
    : cores_(std::move(cores))
{
    ede_assert(!cores_.empty(), "core group needs at least one core");
    for (const OoOCore *c : cores_) {
        ede_assert(c, "core group holds null core");
        ede_assert(&c->mem_ == &cores_[0]->mem_,
                   "all cores of a group must share one MemSystem");
        ede_assert(c->ticking_ == cores_[0]->ticking_,
                   "all cores of a group must share one ticking mode");
        ede_assert(!c->ran_, "core group cores must not have run");
    }
}

Cycle
CoreGroup::run(const std::vector<const Trace *> &traces)
{
    ede_assert(traces.size() == cores_.size(),
               "core group needs one trace per core");
    for (std::size_t i = 0; i < cores_.size(); ++i)
        cores_[i]->beginRun(*traces[i]);

    HostProfile *prof = cores_[0]->profile_;
    PhaseSampler sampler(prof);
    MemSystem &mem = cores_[0]->mem_;
    const bool skip = cores_[0]->ticking_ == TickingMode::SkipAhead;

    const std::size_t n = cores_.size();

    // Dead-tick counter snapshots, one per core.
    std::vector<OoOCore::StallSnapshot> pre(n);

    std::vector<bool> running(n, true);
    std::size_t live = n;

    Cycle now = 0;
    for (OoOCore *c : cores_)
        c->lastProgressCycle_ = 0;

    // A core handed an empty trace is finished before the first tick;
    // it executes for zero cycles, exactly as its solo run would.
    for (std::size_t i = 0; i < n; ++i) {
        if (cores_[i]->finished()) {
            cores_[i]->stats_.cycles = 0;
            running[i] = false;
            --live;
        }
    }

    // Group-level failed-attempt backoff, same heuristic and cap as
    // the single-core loop (host-time only; never changes results).
    Cycle nextAttempt = 0;
    Cycle backoff = 1;
    bool stopped = false;

    while (live > 0) {
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i])
                pre[i] = cores_[i]->beginTick();
        }

        // The shared hierarchy ticks exactly once per cycle; each
        // unfinished core then runs its private pipeline in index
        // order against the post-tick memory state, just as a solo
        // core's tickOnce does.  A sampled tick times every core's
        // phases into the one machine-wide profile.
        HostProfile *timed = sampler.tick();
        {
            PhaseTimer t(timed, &HostProfile::memNanos);
            mem.tick(now);
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i])
                cores_[i]->tickPipeline(now, timed);
        }
        ++now;
        if (prof)
            ++prof->hostTicks;

        // Every unfinished core runs its per-cycle checks each tick
        // (the analyzer has per-core side effects); any core's abort
        // stops the whole group -- partial-machine results are not
        // meaningful.  Callers check every core's simError().
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i] && cores_[i]->runChecks(now))
                stopped = true;
        }
        if (stopped)
            break;

        // A cycle is dead only when *no* core progressed.  Cross-core
        // WAIT release is covered: remote counters change only when
        // the remote core completes something, which is progress.
        bool progressed = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i] && cores_[i]->progressedSince(pre[i]))
                progressed = true;
        }

        for (std::size_t i = 0; i < n; ++i) {
            if (running[i] && cores_[i]->finished()) {
                cores_[i]->stats_.cycles = now;
                running[i] = false;
                --live;
            }
        }
        if (live == 0)
            break;

        if (!skip || progressed) {
            nextAttempt = 0;
            backoff = 1;
            continue;
        }
        if (now < nextAttempt)
            continue;

        // Group skip target: the earliest advertised event of any
        // unfinished core (each core's walk already includes the
        // shared hierarchy's hint and its own check firing cycles).
        Cycle target;
        {
            PhaseTimer timer(prof, &HostProfile::skipNanos);
            if (prof)
                ++prof->skipAttempts;
            target = kNoCycle;
            for (std::size_t i = 0; i < n; ++i) {
                if (running[i])
                    target = std::min(target,
                                      cores_[i]->skipTarget(now));
            }
        }
        if (target <= now) {
            nextAttempt = now + backoff;
            backoff = std::min<Cycle>(backoff * 2, 16);
            continue;
        }
        nextAttempt = 0;
        backoff = 1;
        const Cycle skipped = target - now;
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i])
                cores_[i]->replayDeadTicks(pre[i], skipped);
        }
        // The hierarchy is shared: its refusals replay once.
        mem.replaySkipped(skipped);
        now = target;
        if (prof) {
            ++prof->skipJumps;
            prof->cyclesSkipped += skipped;
        }
        // The landing cycle may be a check firing cycle.
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i] && cores_[i]->runChecks(now))
                stopped = true;
        }
        if (stopped)
            break;
    }

    // Cores still unfinished (the group stopped on an error) record
    // the stop cycle, matching the solo loop's early-exit behaviour.
    for (std::size_t i = 0; i < n; ++i) {
        if (running[i])
            cores_[i]->stats_.cycles = now;
    }
    sampler.finish(now, !skip);
    return now;
}

} // namespace ede
