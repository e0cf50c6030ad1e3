/**
 * @file
 * Deterministic NVM fault plans.
 *
 * A FaultPlan describes every fault injected into one crash scenario:
 *
 *  - a *power-fail ADR drain* budget: at the crash, only `drainLines`
 *    distinct 256 B media lines still pending in the WPQ reach the
 *    media before the stored energy runs out.  The durable set is
 *    modelled as a strict prefix of the persist-accept order (the
 *    budget decides where the prefix is cut; see crash_image.hh) --
 *    anything weaker fabricates orderings the memory system never
 *    produced (a young data update surviving while the older log
 *    entry it depends on is dropped);
 *
 *  - a *torn persist*: the last durable event is cut at an 8-byte
 *    chunk boundary (prefix kept, suffix kept, or an interleaved
 *    subset).  Only the final event may tear: a tear in the middle of
 *    the durable prefix would, again, invent an un-produced ordering;
 *
 *  - *transient accept failures*: the DIMM sporadically refuses a
 *    write/clean at the buffer interface.  Rejections per line are
 *    bounded so the controller's bounded-backoff retry always makes
 *    forward progress.
 *
 * Every decision is derived from the plan's seed through the
 * deterministic Rng -- re-running a {seed, config, crashCycle, plan}
 * tuple reproduces the exact same fault sequence.
 */

#ifndef EDE_FAULT_FAULT_PLAN_HH
#define EDE_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/fields.hh"
#include "common/random.hh"
#include "mem/nvm.hh"

namespace ede {

/** How the final drained persist event is cut. */
enum class TearKind : std::uint8_t
{
    None,        ///< The event lands whole.
    Prefix,      ///< Only the leading chunks land.
    Suffix,      ///< Only the trailing chunks land.
    Interleaved, ///< An arbitrary strict subset of chunks lands.
};

const char *tearKindName(TearKind kind);

/** One crash scenario's fault description. */
struct FaultPlan
{
    /** Drain budget meaning "perfect ADR: everything lands". */
    static constexpr std::uint32_t kDrainAll = 0xffffffffu;

    std::uint64_t seed = 0;       ///< Root of all derived randomness.

    /** Distinct 256 B lines the power-fail drain completes. */
    std::uint32_t drainLines = kDrainAll;

    /** Tear applied to the last drained event. */
    TearKind tear = TearKind::None;

    /** Probability a write/clean accept attempt is refused. */
    double acceptFaultRate = 0.0;

    /** Max consecutive refusals per line (forward-progress bound). */
    std::uint32_t maxConsecutiveRejects = 3;

    /** True when the plan injects no fault at all. */
    bool
    benign() const
    {
        return drainLines == kDrainAll && tear == TearKind::None &&
               acceptFaultRate <= 0.0;
    }

    /** Compact single-line rendering for reproducer tuples. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<FaultPlan> auto &p)
{
    v("seed", p.seed);
    v("drain_lines", p.drainLines);
    v("tear", p.tear, tearKindName);
    v("accept_fault_rate", p.acceptFaultRate);
    v("max_consecutive_rejects", p.maxConsecutiveRejects);
}

/**
 * Derive a crash-point fault plan from @p seed: a drain budget in
 * [0, wpqSlots] and a tear kind, both uniform.  Accept-fault injection
 * is configured separately (it applies to a whole simulation, not one
 * crash point).
 */
FaultPlan makeFaultPlan(std::uint64_t seed, std::uint32_t wpqSlots);

/**
 * Chunk-survival mask for a torn event of @p chunks 8-byte chunks:
 * bit i set means chunk i landed.  Always a strict subset (at least
 * one chunk lost) and, except for TearKind::Interleaved, non-empty.
 * Deterministic in (plan.seed, plan.tear, chunks).
 */
std::uint64_t tornChunkMask(const FaultPlan &plan, std::size_t chunks);

/**
 * Build the NvmDevice accept-fault injector for @p plan: refuses
 * write-class accepts with plan.acceptFaultRate, never more than
 * plan.maxConsecutiveRejects times in a row for one media line.
 * Returns an empty hook for plans with no accept faults.
 */
AcceptFaultHook makeAcceptFaultInjector(const FaultPlan &plan);

/**
 * The weakest variant of the failing @p plan that @p fails still
 * rejects: no faults at all, tear only, drain only, then @p plan
 * itself -- the reproducer a campaign reports.
 */
FaultPlan weakestFailingPlan(
    const FaultPlan &plan,
    const std::function<bool(const FaultPlan &)> &fails);

} // namespace ede

#endif // EDE_FAULT_FAULT_PLAN_HH
