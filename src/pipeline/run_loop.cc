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
    }
}

Cycle
CoreGroup::run(const std::vector<const Trace *> &traces,
               HostProfile *prof)
{
    ede_assert(traces.size() == cores_.size(),
               "core group needs one trace per core");
    for (std::size_t i = 0; i < cores_.size(); ++i)
        cores_[i]->beginRun(*traces[i]);

    PhaseSampler sampler(prof);
    MemSystem &mem = cores_[0]->mem_;
    const bool skip = cores_[0]->ticking_ == TickingMode::SkipAhead;

    const std::size_t n = cores_.size();
    std::vector<bool> running(n, true);
    std::size_t live = n;

    Cycle now = 0;
    for (OoOCore *c : cores_)
        c->lastProgressCycle_ = 0;

    // A core handed an empty trace is finished before the first
    // tick: it executes for zero cycles.
    for (std::size_t i = 0; i < n; ++i) {
        if (cores_[i]->finished()) {
            cores_[i]->stats_.cycles = 0;
            running[i] = false;
            --live;
        }
    }

    // Failed-attempt backoff: when a dead tick's skip target comes
    // back <= now (some queue is mid-drain and hints "ready"), the
    // full component walk was wasted.  Retrying it every dead cycle
    // can cost more than the ticks it saves, so back off
    // exponentially (capped) until a skip lands or progress resumes.
    // Purely a host-time heuristic: the extra dead cycles are ticked
    // normally, so simulated results are unaffected.
    Cycle nextAttempt = 0;
    Cycle backoff = 1;
    bool stopped = false;

    while (live > 0) {
        // The shared hierarchy ticks exactly once per cycle; each
        // unfinished core then runs its private pipeline in index
        // order against the post-tick memory state.  A sleeping core
        // is passed over unless a wake source fired: it sees the
        // WAIT counters as the lower-index cores left them this
        // cycle, and its own tick records them, so a higher-index
        // core's exit wakes it next cycle.  A sampled tick times
        // every ticked core's phases into the one machine-wide
        // profile.
        HostProfile *timed = sampler.tick();
        {
            PhaseTimer t(timed, &HostProfile::memNanos);
            mem.tick(now);
        }
        for (std::size_t i = 0; i < n; ++i) {
            OoOCore &c = *cores_[i];
            if (!running[i])
                continue;
            if (!c.asleep_)
                c.beginTick();
            else if (c.wakeDue(now))
                c.wake(now);
            else
                continue;
            c.tickPipeline(now, timed);
        }
        ++now;
        if (prof)
            ++prof->hostTicks;

        // Every unfinished core runs its per-cycle checks each tick
        // (the analyzer has per-core side effects), except a sleeping
        // core before its checkAt_, where they cannot act; any core's
        // abort stops the whole group -- partial-machine results are
        // not meaningful.  Callers check every core's simError().
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i] && cores_[i]->checksDue(now) &&
                cores_[i]->runChecks(now)) {
                stopped = true;
            }
        }
        if (stopped)
            break;

        // A cycle is dead only when *no* core progressed.  A sleeping
        // core progresses only by a degrade release in checks that
        // ran, which wakes it; nothing else about it changed.  Under
        // skip-ahead an idle core sleeps, unless its L1D refused a
        // load: reference ticking retries (and counts) that every
        // cycle.
        bool progressed = false;
        for (std::size_t i = 0; i < n; ++i) {
            OoOCore &c = *cores_[i];
            if (!running[i])
                continue;
            if (c.asleep_) {
                if (c.checksDue(now))
                    progressed |= c.sleeperChecked(now);
                continue;
            }
            const bool p = c.progressed();
            progressed |= p;
            if (c.finished()) {
                c.stats_.cycles = now;
                running[i] = false;
                --live;
            } else if (skip && !p && !c.loadRefused_) {
                c.sleep(now);
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

        // Dead tick: every cycle until the earliest advertised event
        // of the shared hierarchy or of any unfinished core (its
        // write buffer, timed events and check firing cycles) is an
        // identical no-op, so jump there.  Every hint is >= now, so
        // once one answers now the attempt has failed and no further
        // core is asked.  Attempts are counted exactly and timed on
        // sampled ticks only, like the phases.
        Cycle target;
        {
            PhaseTimer timer(timed, &HostProfile::skipNanos);
            if (prof)
                ++prof->skipAttempts;
            if (timed)
                ++timed->skipAttempts;
            target = mem.nextEventCycle(now);
            for (std::size_t i = 0; i < n && target > now; ++i) {
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
        // A sleeping core replays the jumped window when it wakes.
        for (std::size_t i = 0; i < n; ++i) {
            if (running[i] && !cores_[i]->asleep_)
                cores_[i]->replayDeadTicks(skipped);
        }
        // The hierarchy is shared: its refusals replay once.
        mem.replaySkipped(skipped);
        now = target;
        if (prof) {
            ++prof->skipJumps;
            prof->cyclesSkipped += skipped;
        }
        // The landing cycle may be a check firing cycle, and a
        // degrade release there wakes its core.
        for (std::size_t i = 0; i < n; ++i) {
            OoOCore &c = *cores_[i];
            if (!running[i] || !c.checksDue(now))
                continue;
            if (c.runChecks(now))
                stopped = true;
            else if (c.asleep_)
                c.sleeperChecked(now);
        }
        if (stopped)
            break;
    }

    // Cores still unfinished (the group stopped on an error) replay
    // any slept cycles, then record the stop cycle.
    for (std::size_t i = 0; i < n; ++i) {
        if (!running[i])
            continue;
        if (cores_[i]->asleep_)
            cores_[i]->wake(now);
        cores_[i]->stats_.cycles = now;
    }
    sampler.finish(now, !skip);
    return now;
}

} // namespace ede
