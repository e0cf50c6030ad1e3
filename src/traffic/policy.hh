/**
 * @file
 * Overload-control policy knobs for the serving path.
 *
 * The paper's NVM controller has a *finite* write-pending queue
 * behind the ADR domain, but the PR-9 traffic harness replays
 * arrivals into an infinite Lindley queue: past the overload knee
 * the open-loop tail diverges and nothing pushes back.  This header
 * declares the control surface a production serving stack puts in
 * front of such a queue:
 *
 *  - a finite per-core service queue whose depth is *derived from
 *    the machine's own backpressure signal* -- the measured NVM
 *    write-pending occupancy and accept-reject counts of the run --
 *    so a fence-heavy configuration that keeps the WPQ full admits
 *    less than one that drains it;
 *  - pluggable admission policies: drop-tail on the finite queue,
 *    deadline-based load shedding (reject a transaction whose
 *    *predicted completion* already misses its deadline -- the
 *    cheapest moment to say no, and admitted work is then
 *    guaranteed to be goodput), and a token-bucket rate limiter;
 *  - client-side retries under a per-stream retry *budget* with
 *    seeded exponential backoff + jitter;
 *  - a graceful-degradation escalation ladder (Normal -> ReadMostly
 *    -> RejectAll) driven by a sliding-window shed rate, recovering
 *    hysteretically.
 *
 * Everything here is plain data + integer arithmetic: the policies
 * run in the post-hoc replay (traffic/overload.hh) over *measured*
 * service times and never perturb the trace, so the closed-loop
 * machine run stays bit-identical across offered loads, --jobs
 * counts and ticking modes.
 */

#ifndef EDE_TRAFFIC_POLICY_HH
#define EDE_TRAFFIC_POLICY_HH

#include <cstdint>
#include <string_view>

#include "common/fields.hh"
#include "common/types.hh"

namespace ede {
namespace traffic {

/** The pluggable admission policies. */
enum class AdmissionKind
{
    None,        ///< Infinite queue; the PR-9 behaviour.
    DropTail,    ///< Shed when the finite queue is full.
    Deadline,    ///< Shed on a predicted deadline miss at completion.
    TokenBucket, ///< Shed when the bucket is out of tokens.
};

/** Printable policy name (JSON / labels / CLI). */
constexpr std::string_view
admissionKindName(AdmissionKind k)
{
    switch (k) {
      case AdmissionKind::None: return "none";
      case AdmissionKind::DropTail: return "drop-tail";
      case AdmissionKind::Deadline: return "deadline";
      case AdmissionKind::TokenBucket: return "token-bucket";
    }
    return "<bad-admission-kind>";
}

/** The graceful-degradation ladder's rungs, mildest first. */
enum class DegradeLevel : std::uint8_t
{
    Normal = 0,     ///< Serve everything the admission policy admits.
    ReadMostly = 1, ///< Shed update transactions; serve reads.
    RejectAll = 2,  ///< Shed everything until pressure subsides.
};

constexpr std::string_view
degradeLevelName(DegradeLevel l)
{
    switch (l) {
      case DegradeLevel::Normal: return "normal";
      case DegradeLevel::ReadMostly: return "read-mostly";
      case DegradeLevel::RejectAll: return "reject-all";
    }
    return "<bad-degrade-level>";
}

/** One traffic plan's overload-control configuration. */
struct OverloadPolicy
{
    AdmissionKind admission = AdmissionKind::None;

    /**
     * Base finite service-queue depth, in waiting transactions.  The
     * *effective* depth is this scaled down by the run's measured
     * backpressure signal (effectiveQueueDepth below); it bounds the
     * queue under every admission policy, not just drop-tail.
     */
    unsigned queueDepth = 16;

    /**
     * Client deadline in cycles from the original arrival
     * (Deadline admission; also classifies completed-but-late
     * transactions as timeouts for goodput accounting).  Must be
     * >= 1 when admission == Deadline.
     */
    Cycle deadline = 0;

    /** @name Token bucket (admission == TokenBucket only). */
    /// @{
    unsigned tokenRatePerKCycle = 0; ///< Tokens added per 1024 cycles.
    unsigned tokenBurst = 0;         ///< Bucket capacity, in tokens.
    /// @}

    /**
     * @name Client-side retry budget.
     *
     * A shed transaction re-enters the arrival stream as a new
     * Lindley job after a seeded exponential backoff + jitter, as
     * long as its stream still has budget; budget exhaustion is a
     * counted permanent failure.  Budget is per stream for the whole
     * run -- the classic retry-budget discipline that stops retry
     * storms from amplifying an overload.
     */
    /// @{
    unsigned retryBudget = 0;       ///< Retries per stream (0 = none).
    Cycle retryBackoffBase = 256;   ///< First backoff, cycles.
    Cycle retryBackoffCap = 8192;   ///< Exponential backoff ceiling.
    /// @}

    /**
     * @name Graceful-degradation escalation ladder.
     *
     * A sliding window over the last shedWindow admission-pressure
     * verdicts (would the admission policy shed this transaction?)
     * drives the ladder: when the windowed shed rate reaches
     * degradePermille the core escalates one rung; when it falls to
     * recoverPermille it steps back down.  recoverPermille <
     * degradePermille is the hysteresis band that stops the ladder
     * from oscillating at the threshold.
     */
    /// @{
    bool degrade = false;
    unsigned shedWindow = 32;
    unsigned degradePermille = 500;
    unsigned recoverPermille = 125;
    /// @}

    /** True when any admission policy gates the replay. */
    bool active() const { return admission != AdmissionKind::None; }
};

void
visitFields(auto &v, FieldsOf<OverloadPolicy> auto &p)
{
    v("admission", p.admission, admissionKindName);
    v("queue_depth", p.queueDepth);
    v("deadline", p.deadline);
    v("token_rate", p.tokenRatePerKCycle);
    v("token_burst", p.tokenBurst);
    v("retry_budget", p.retryBudget);
    v("retry_backoff_base", p.retryBackoffBase);
    v("retry_backoff_cap", p.retryBackoffCap);
    v("degrade", p.degrade);
    v("shed_window", p.shedWindow);
    v("degrade_permille", p.degradePermille);
    v("recover_permille", p.recoverPermille);
}

/**
 * The backpressure signal one machine run emits, derived from the
 * measured RunResult: how full the NVM write-pending queue ran and
 * how often the controller had to reject an accept.  All integer
 * permille so the derived queue depth is bit-stable.
 */
struct BackpressureSignal
{
    /** Mean WPQ occupancy in permille of bufferSlots. */
    std::uint64_t occupancyPermille = 0;

    /** Accept rejects (full + transient) in permille of attempts. */
    std::uint64_t rejectPermille = 0;

    /** Raw counts, for the record. */
    std::uint64_t transientRejects = 0;
    std::uint64_t bufferFullRejects = 0;
};

/**
 * The finite queue depth the replay actually enforces: the base
 * depth scaled down linearly by the combined pressure (occupancy +
 * reject permille, saturated at 1000), bottoming out at 1/6 of the
 * base and never below one slot:
 *
 *     depth = max(1, queueDepth * (1200 - pressure) / 1200)
 *
 * A configuration that keeps the WPQ pinned (U under write-heavy
 * load) therefore admits a visibly shorter queue than one that
 * drains it -- the NVM's own congestion, surfaced at admission.
 */
std::uint64_t effectiveQueueDepth(const OverloadPolicy &policy,
                                  const BackpressureSignal &signal);

} // namespace traffic
} // namespace ede

#endif // EDE_TRAFFIC_POLICY_HH
