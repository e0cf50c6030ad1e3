/**
 * @file
 * Host-side performance profile of one simulation run.
 *
 * Everything in here measures the *simulator*, not the simulated
 * machine: wall-clock nanoseconds per pipeline phase, how many host
 * ticks the cycle loop actually executed, and how many simulated
 * cycles the skip-ahead scheduler jumped over.  None of it is
 * deterministic across hosts, so it lives outside CoreStats (which
 * must stay bit-identical between ticking modes) and is excluded from
 * the result-cache fingerprint.
 *
 * The struct is header-only so the pipeline can fill it without
 * linking against the experiment layer; the experiment layer's JSON
 * sink renders it through its field table.
 */

#ifndef EDE_EXP_PROFILE_HH
#define EDE_EXP_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "common/fields.hh"
#include "common/types.hh"

namespace ede {

/** Wall-clock timers and skip counters for one OoOCore::run. */
struct HostProfile
{
    /**
     * @name Per-phase wall-clock time, nanoseconds, summed over every
     * core.  Estimates: each run times one host tick in
     * kPhaseSamplePeriod and scales (PhaseSampler).
     */
    /// @{
    std::uint64_t memNanos = 0;    ///< MemSystem tick + load polling.
    std::uint64_t fetchNanos = 0;  ///< Dispatch (frontend).
    std::uint64_t issueNanos = 0;  ///< Issue-queue scan.
    std::uint64_t wbNanos = 0;     ///< Exec WB, write buffer, retire.
    /// @}

    /** Whole-run wall-clock time, nanoseconds. */
    std::uint64_t wallNanos = 0;

    /** tickOnce invocations actually executed on the host. */
    std::uint64_t hostTicks = 0;

    /** Skip-ahead jumps taken (0 under reference ticking). */
    std::uint64_t skipJumps = 0;

    /** skipTarget evaluations, including failed ones (target<=now). */
    std::uint64_t skipAttempts = 0;

    /** Wall time spent computing skip targets, nanoseconds. */
    std::uint64_t skipNanos = 0;

    /** Simulated cycles covered by jumps instead of ticks. */
    Cycle cyclesSkipped = 0;

    /** Total simulated cycles of the run. */
    Cycle cyclesSimulated = 0;

    /** True when the run used the reference per-cycle loop. */
    bool referenceTicking = false;

    /** Simulated cycles per host second (0 when unmeasured). */
    double
    cyclesPerHostSecond() const
    {
        if (wallNanos == 0)
            return 0.0;
        return static_cast<double>(cyclesSimulated) * 1e9 /
               static_cast<double>(wallNanos);
    }

    /** Fraction of simulated cycles that were skipped, in [0, 1]. */
    double
    skipRatio() const
    {
        if (cyclesSimulated == 0)
            return 0.0;
        return static_cast<double>(cyclesSkipped) /
               static_cast<double>(cyclesSimulated);
    }

    /** Accumulate another run's profile (sweep totals). */
    void
    merge(const HostProfile &o)
    {
        memNanos += o.memNanos;
        fetchNanos += o.fetchNanos;
        issueNanos += o.issueNanos;
        wbNanos += o.wbNanos;
        wallNanos += o.wallNanos;
        hostTicks += o.hostTicks;
        skipJumps += o.skipJumps;
        skipAttempts += o.skipAttempts;
        skipNanos += o.skipNanos;
        cyclesSkipped += o.cyclesSkipped;
        cyclesSimulated += o.cyclesSimulated;
        referenceTicking = referenceTicking || o.referenceTicking;
    }
};

void
visitFields(auto &v, FieldsOf<HostProfile> auto &p)
{
    v("reference_ticking", p.referenceTicking);
    v("wall_nanos", p.wallNanos);
    v("mem_nanos", p.memNanos);
    v("fetch_nanos", p.fetchNanos);
    v("issue_nanos", p.issueNanos);
    v("wb_nanos", p.wbNanos);
    v("host_ticks", p.hostTicks);
    v("skip_jumps", p.skipJumps);
    v("skip_attempts", p.skipAttempts);
    v("skip_nanos", p.skipNanos);
    v("cycles_skipped", p.cyclesSkipped);
    v("cycles_simulated", p.cyclesSimulated);
    v.derived("cycles_per_host_sec", p.cyclesPerHostSecond());
    v.derived("skip_ratio", p.skipRatio());
}

/**
 * Scoped phase timer: adds the elapsed nanoseconds to @p slot on
 * destruction.  Constructed with a null profile it does nothing, so
 * the instrumented code pays one branch when profiling is off.
 */
class PhaseTimer
{
  public:
    PhaseTimer(HostProfile *profile, std::uint64_t HostProfile::*slot)
        : profile_(profile), slot_(slot)
    {
        if (profile_)
            start_ = std::chrono::steady_clock::now();
    }

    ~PhaseTimer()
    {
        if (profile_) {
            profile_->*slot_ += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
        }
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    HostProfile *profile_;
    std::uint64_t HostProfile::*slot_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Host ticks per timed tick of the phase profile.  Reading the clock
 * around every phase of every tick cost a fifth to a quarter of a
 * live-tick run's host time; timing one tick in 64 cuts that cost
 * 64-fold.  A compile-time constant on purpose: the estimate is
 * host-side only, and a knob would be one more input to validate.
 */
inline constexpr std::uint64_t kPhaseSamplePeriod = 64;

/**
 * One run's host profiling.  The run loop calls tick() once per host
 * tick and hands the result to every PhaseTimer of that tick: every
 * kPhaseSamplePeriod-th tick (the first included) gets the sample
 * accumulator, all others get null and read no clock.  finish() adds
 * the run's wall time and its scaled phase estimates to the profile
 * -- once per run, so a profile that accumulates several runs never
 * rescales an earlier run's estimate.  Constructed with a null
 * profile it profiles nothing.
 */
class PhaseSampler
{
  public:
    explicit PhaseSampler(HostProfile *profile)
        : profile_(profile),
          skipStart_(profile ? profile->skipNanos : 0),
          wallStart_(std::chrono::steady_clock::now())
    {
    }

    /** @return the accumulator to time this tick into, or null. */
    HostProfile *
    tick()
    {
        if (!profile_ || ticks_++ % kPhaseSamplePeriod != 0)
            return nullptr;
        ++sampled_;
        return &sample_;
    }

    /**
     * Close the run: record its cycle count, ticking mode and wall
     * time, and add its estimated phase nanoseconds.  The phases are
     * disjoint slices of the run's live-tick time, so the estimate is
     * capped at the run's wall time less its exact skip time: an
     * outlier sample (a preempted tick) scaled up must not claim
     * more time than the run took.
     */
    void
    finish(Cycle cycles, bool reference)
    {
        if (!profile_)
            return;
        const auto wall = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wallStart_)
                .count());
        profile_->cyclesSimulated = cycles;
        profile_->referenceTicking = reference;
        profile_->wallNanos += wall;
        if (sampled_ == 0)
            return;
        const std::uint64_t skip = profile_->skipNanos - skipStart_;
        const double live = static_cast<double>(wall > skip ? wall - skip
                                                            : 0);
        const double total = static_cast<double>(
            sample_.memNanos + sample_.fetchNanos + sample_.issueNanos +
            sample_.wbNanos);
        double scale = static_cast<double>(ticks_) /
                       static_cast<double>(sampled_);
        if (total * scale > live)
            scale = live / total;
        const auto est = [scale](std::uint64_t ns) {
            return static_cast<std::uint64_t>(static_cast<double>(ns) *
                                              scale);
        };
        profile_->memNanos += est(sample_.memNanos);
        profile_->fetchNanos += est(sample_.fetchNanos);
        profile_->issueNanos += est(sample_.issueNanos);
        profile_->wbNanos += est(sample_.wbNanos);
    }

  private:
    HostProfile *profile_;
    std::uint64_t skipStart_;
    std::chrono::steady_clock::time_point wallStart_;
    std::uint64_t ticks_ = 0;
    std::uint64_t sampled_ = 0;
    HostProfile sample_;
};

/** One-line human-readable summary ("12.3 Mcyc/s, 87% skipped"). */
std::string describeProfile(const HostProfile &profile);


} // namespace ede

#endif // EDE_EXP_PROFILE_HH
