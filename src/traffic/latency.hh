/**
 * @file
 * Exact latency-percentile records for the traffic harness.
 *
 * Tail latency is the whole point of the open-loop harness, so the
 * percentiles are *exact order statistics* over the integer cycle
 * samples -- nearest-rank selection via nth_element -- never a
 * histogram approximation whose bucket geometry could smear the very
 * tail the sweep is hunting.  Integer in, integer out: summaries are
 * trivially bit-identical across --jobs counts and ticking modes, so
 * the determinism gates can cmp them byte for byte.
 */

#ifndef EDE_TRAFFIC_LATENCY_HH
#define EDE_TRAFFIC_LATENCY_HH

#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace ede {
namespace traffic {

/**
 * Exact per-mille nearest-rank order statistic: the smallest sample
 * such that at least permille/1000 of @p samples are <= it (index
 * ceil(n * permille / 1000) - 1 of the sorted order).  Selection is
 * done in place with nth_element; @p samples is reordered.
 * @pre !samples.empty() && 1 <= permille <= 1000.
 */
Cycle exactPermille(std::vector<Cycle> &samples, unsigned permille);

/** Exact order-statistics digest of one latency population. */
struct LatencySummary
{
    std::uint64_t count = 0;
    Cycle p50 = 0;        ///< Median (nearest rank).
    Cycle p99 = 0;        ///< 99th percentile (exact, not binned).
    Cycle p999 = 0;       ///< 99.9th percentile.
    Cycle max = 0;
    std::uint64_t sum = 0;  ///< For exact means downstream.

    /** Mean as a double (0 for an empty population). */
    double
    mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/** JSON prints every statistic of an empty population as null. */
void
visitFields(auto &v, FieldsOf<LatencySummary> auto &s)
{
    const bool any = s.count != 0;
    const double mean = s.mean();
    v("count", s.count);
    v("p50", nullUnless(s.p50, any));
    v("p99", nullUnless(s.p99, any));
    v("p999", nullUnless(s.p999, any));
    v("max", nullUnless(s.max, any));
    v("sum", s.sum);
    v.derived("mean", nullUnless(mean, any));
}

/** Digest @p samples (consumed: selection reorders the vector). */
LatencySummary summarize(std::vector<Cycle> samples);

/**
 * One stream's latency record.  A count of zero in either summary is
 * an explicit "no samples" verdict (the JSON sink emits absent
 * percentiles, never zeros) -- it arises when every transaction of a
 * stream was shed, or for an empty window slice.
 */
struct StreamLatency
{
    unsigned stream = 0;     ///< Stream id.
    unsigned core = 0;       ///< Core the stream was multiplexed onto.
    LatencySummary open;     ///< Open-loop latency (depart - arrival).
    LatencySummary service;  ///< Pure service time (machine cycles).

    /** @name Overload counters (zero unless a policy was active). */
    /// @{
    std::uint64_t shed = 0;      ///< Shed attempts (any reason).
    std::uint64_t retries = 0;   ///< Budgeted retries spent.
    std::uint64_t failures = 0;  ///< Permanently failed transactions.
    /// @}
};

void
visitFields(auto &v, FieldsOf<StreamLatency> auto &s)
{
    v("stream", s.stream);
    v("core", s.core);
    v("open", s.open);
    v("service", s.service);
    v("shed", s.shed);
    v("retries", s.retries);
    v("failures", s.failures);
}

/**
 * One progress window of the run: transactions are binned by their
 * per-stream index (window = index * windows / txnsOfStream), so the
 * series tracks run progression identically for open and closed-pool
 * arrivals.  A window is flagged warmup when it lies entirely inside
 * the warmup fraction of the run.
 */
struct WindowLatency
{
    unsigned window = 0;
    bool warmup = false;
    LatencySummary open;
    LatencySummary service;
};

void
visitFields(auto &v, FieldsOf<WindowLatency> auto &w)
{
    v("window", w.window);
    v("warmup", w.warmup);
    v("open", w.open);
    v("service", w.service);
}

/**
 * What the overload-control replay (traffic/overload.hh) reports when
 * an admission policy is active.  Goodput counts transactions that
 * completed AND met their deadline (every completion when no deadline
 * is configured); completed-but-late transactions are timeouts.
 * offered == completed + failures always holds.
 */
struct OverloadResult
{
    bool enabled = false;

    /** Backpressure-scaled finite queue depth actually enforced. */
    std::uint64_t effectiveDepth = 0;

    std::uint64_t offered = 0;    ///< Distinct transactions offered.
    std::uint64_t admitted = 0;   ///< Admission grants (= completions).
    std::uint64_t completed = 0;
    std::uint64_t goodput = 0;    ///< Completed within deadline.
    std::uint64_t timeouts = 0;   ///< Completed but past deadline.
    std::uint64_t failures = 0;   ///< Shed and never completed.

    /** @name Steady-state slice (warmup transactions excluded). */
    /// @{
    std::uint64_t steadyOffered = 0;
    std::uint64_t steadyGoodput = 0;
    /** First steady arrival to last arrival, for goodput *rates*. */
    Cycle steadyHorizon = 0;
    /// @}

    /** @name Shed attempts by reason. */
    /// @{
    std::uint64_t shedQueue = 0;     ///< Finite queue full.
    std::uint64_t shedDeadline = 0;  ///< Predicted start past deadline.
    std::uint64_t shedToken = 0;     ///< Token bucket empty.
    std::uint64_t shedDegrade = 0;   ///< Escalation-ladder rejections.
    /// @}

    /** @name Retry budget. */
    /// @{
    std::uint64_t retries = 0;
    std::uint64_t retryExhausted = 0;  ///< Failures with budget spent.
    /// @}

    /** @name Graceful-degradation ladder. */
    /// @{
    std::uint64_t degradeUp = 0;
    std::uint64_t degradeDown = 0;
    unsigned maxDegradeLevel = 0;  ///< Highest DegradeLevel reached.
    /// @}

    LatencySummary open;         ///< Completed txns, client-perceived.
    LatencySummary goodputOpen;  ///< Deadline-met txns only.
};

void
visitFields(auto &v, FieldsOf<OverloadResult> auto &r)
{
    v("enabled", r.enabled);
    v("effective_depth", r.effectiveDepth);
    v("offered", r.offered);
    v("admitted", r.admitted);
    v("completed", r.completed);
    v("goodput", r.goodput);
    v("timeouts", r.timeouts);
    v("failures", r.failures);
    v("steady_offered", r.steadyOffered);
    v("steady_goodput", r.steadyGoodput);
    v("steady_horizon", r.steadyHorizon);
    v("shed_queue", r.shedQueue);
    v("shed_deadline", r.shedDeadline);
    v("shed_token", r.shedToken);
    v("shed_degrade", r.shedDegrade);
    v("retries", r.retries);
    v("retry_exhausted", r.retryExhausted);
    v("degrade_up", r.degradeUp);
    v("degrade_down", r.degradeDown);
    v("max_degrade_level", r.maxDegradeLevel);
    v("open", r.open);
    v("goodput_open", r.goodputOpen);
}

/** Everything a traffic run reports beyond the closed-loop counters. */
struct TrafficResult
{
    bool enabled = false;          ///< True only for traffic runs.
    LatencySummary open;           ///< Aggregate over every txn.
    LatencySummary service;

    /** @name Warmup vs steady-state split of the aggregates. */
    /// @{
    LatencySummary openWarmup;
    LatencySummary openSteady;
    LatencySummary serviceWarmup;
    LatencySummary serviceSteady;
    /// @}

    std::vector<WindowLatency> windows;  ///< Progress time series.
    std::vector<StreamLatency> streams;  ///< Stream-id order.

    OverloadResult overload;  ///< enabled only when a policy ran.
};

void
visitFields(auto &v, FieldsOf<TrafficResult> auto &r)
{
    v("enabled", r.enabled);
    v("open", r.open);
    v("service", r.service);
    v("open_warmup", r.openWarmup);
    v("open_steady", r.openSteady);
    v("service_warmup", r.serviceWarmup);
    v("service_steady", r.serviceSteady);
    v("windows", r.windows);
    v("streams", r.streams);
    v("overload", omitUnless(r.overload, r.overload.enabled));
}

} // namespace traffic
} // namespace ede

#endif // EDE_TRAFFIC_LATENCY_HH
