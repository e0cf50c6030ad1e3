/**
 * @file
 * Cross-core crash-consistency model checker.
 *
 * The single-core checker (fault/model_check/checker.hh) enumerates
 * durable sets of one hart's persist order and judges each state
 * through undo-log recovery.  This is its N-core counterpart: one
 * *joint* partial order spans every core's persist events (per-core
 * chains joined by cross-core WAIT edges and shared-L2 dirty-handoff
 * same-line edges, persist_order.hh), cross-core durable sets are
 * the ideals of that joint lattice, and each materialized crash image
 * is judged by the concurrent kernels' recovery oracles
 * (checkConcInvariants) -- there is no undo log; the structures are
 * their own recovery story.
 *
 * Sensitivity gate: seedMissingCrossCoreWaitBug retargets one
 * cross-core WAIT to the waiting core's own key, deleting exactly the
 * WAIT edge that orders a consumer's dependent persist behind the
 * producer core's persists.  The checker must then find a durable
 * set with the consumer's write durable but the producer's missing
 * (e.g. a dequeued node vanishing from a recovered MS-queue) while
 * the intact program verifies clean.
 *
 * Checks run in the slow-media regime by default (mediaFactor scales
 * the NVM media write latency): accepted-but-undrained remote
 * persists then stay outstanding across scheduling rounds, which is
 * precisely the window where cross-core ordering bugs surface.
 */

#ifndef EDE_FAULT_CONC_CHECK_HH
#define EDE_FAULT_CONC_CHECK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/conc_harness.hh"
#include "exp/worker.hh"
#include "fault/campaign.hh"
#include "fault/model_check/persist_order.hh"

namespace ede {

/** Joint persist order of a completed, audited concurrent run. */
PersistOrderGraph buildConcPersistOrder(const ConcurrentHarness &h);

/** Where (if anywhere) the seeded cross-core bug was planted. */
struct SeededConcBug
{
    std::size_t opIdx = kNoEvent; ///< Trace index; kNoEvent = none.
    unsigned core = 0;            ///< Core whose WAIT was retargeted.
};

/**
 * Seeded-bug mutator: the first WAIT_KEY naming a *remote* core's
 * key (scanning cores 1..N-1 first, then core 0) is retargeted to
 * the waiting core's own key.  The machine still executes a valid
 * wait -- it just no longer drains the remote producer, so the
 * cross-core ordering edge disappears.  Must run after generate()
 * and before simulate().  Fence-based configurations (B, SU, U)
 * carry no WAIT: the bug is reported unplanted.
 */
SeededConcBug seedMissingCrossCoreWaitBug(std::vector<Trace> &traces);

/** One shrunk violating cross-core durable state. */
struct ConcCounterexample
{
    std::string invariant;            ///< checkConcInvariants name.
    std::vector<std::size_t> durable; ///< Joint-lattice event indices.
    std::size_t tornIdx = kNoEvent;   ///< Torn event, if any.
    std::uint64_t tornMask = 0;       ///< Surviving-chunk mask.
    std::uint64_t imageHash = 0;      ///< Canonical content hash.

    /** One-line human-readable rendering. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<ConcCounterexample> auto &c)
{
    v("invariant", c.invariant);
    v("durable", c.durable);
    v("torn_idx", nullUnless(c.tornIdx, c.tornIdx != kNoEvent));
    v("torn_mask", c.tornMask);
    v("image_hash", c.imageHash);
}

/** Verdict and tallies for one configuration. */
struct ConcCheckConfigResult
{
    Config config = Config::B;
    Cycle cycles = 0;                 ///< Simulated run length.
    std::size_t events = 0;           ///< Persist events recorded.
    std::size_t freeEvents = 0;       ///< Enumerable (all of them).
    PersistOrderStats orderStats;     ///< Incl. crossWait/crossLine.
    std::uint64_t states = 0;
    std::uint64_t rejectedBudget = 0;
    std::uint64_t tornVariants = 0;
    std::uint64_t uniqueImages = 0;
    std::uint64_t recoveredClean = 0;
    std::uint64_t violations = 0;
    bool truncated = false;
    std::size_t seededBugOpIdx = kNoEvent;
    unsigned seededBugCore = 0;
    std::vector<ConcCounterexample> counterexamples;
};

/** JSON names the seeded bug only where it was planted. */
void
visitFields(auto &v, FieldsOf<ConcCheckConfigResult> auto &r)
{
    const bool planted = r.seededBugOpIdx != kNoEvent;
    v("config", r.config, configName);
    v("cycles", r.cycles);
    v("events", r.events);
    v("free_events", r.freeEvents);
    v("edges", r.orderStats);
    v("states", r.states);
    v("rejected_budget", r.rejectedBudget);
    v("torn_variants", r.tornVariants);
    v("unique_images", r.uniqueImages);
    v("recovered_clean", r.recoveredClean);
    v("violations", r.violations);
    v("truncated", r.truncated);
    v.derived("coverage", r.truncated ? "truncated" : "exact");
    v("seeded_bug_core", omitUnless(r.seededBugCore, planted));
    v("seeded_bug_op_idx", omitUnless(r.seededBugOpIdx, planted));
    v("counterexamples", r.counterexamples);
}

/** Cross-core model-check parameters. */
struct ConcCheckOptions
{
    ConcApp app = ConcApp::MsQueue;
    std::uint64_t seed = 1;

    unsigned cores = 2;

    /**
     * Deliberately tiny: the joint lattice is exponential in the
     * total persist events of *all* cores.  Four ops per core on two
     * cores already exercises every cross-core handoff path.
     */
    int opsPerCore = 4;
    std::uint64_t workloadSeed = 42;

    /**
     * NVM media write latency multiplier (>= 1).  The default keeps
     * remote persists buffered across several paced rounds so
     * accept-order prefixes routinely cut through
     * accepted-but-undrained remote writes.
     */
    std::uint32_t mediaFactor = 8;

    std::vector<Config> configs{Config::B, Config::IQ, Config::WB};

    std::uint32_t drainLines = FaultPlan::kDrainAll;
    std::uint64_t maxStates = 20000;
    std::uint64_t budgetMs = 0;
    bool torn = true;
    bool seedBug = false;  ///< Apply seedMissingCrossCoreWaitBug.
    std::size_t maxCounterexamples = 4;
    unsigned jobs = 1;

    /** Process isolation (same contract as CampaignOptions). */
    exp::Isolation isolation;
};

/** The check's identity: isolation and job count never change it. */
void
visitFields(auto &v, FieldsOf<ConcCheckOptions> auto &o)
{
    v("app", o.app, concAppName);
    v("seed", o.seed);
    v("cores", o.cores);
    v("ops_per_core", o.opsPerCore);
    v("workload_seed", o.workloadSeed);
    v("media_factor", o.mediaFactor);
    v("configs", o.configs, configName);
    v("drain_lines", o.drainLines);
    v("max_states", o.maxStates);
    v("budget_ms", o.budgetMs);
    v("torn", o.torn);
    v("seed_bug", o.seedBug);
    v("max_counterexamples", o.maxCounterexamples);
}

/** The whole cross-core model check's outcome. */
struct ConcCheckReport
{
    ConcCheckOptions options;
    std::vector<ConcCheckConfigResult> configs;
    std::vector<QuarantinedConfig> quarantined;

    /**
     * Acceptance: nothing quarantined; intact configurations verify
     * clean; configurations where the seeded WAIT bug was actually
     * planted (EDE configurations with a cross-core WAIT) report at
     * least one violation.
     */
    bool ok() const;

    /** Multi-line human-readable summary with counterexamples. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<ConcCheckReport> auto &r)
{
    v("conc_check", r.options);
    v("configs", r.configs);
    v("quarantined", r.quarantined);
    v.derived("ok", r.ok());
}

/** Run the cross-core model check across configurations. */
ConcCheckReport runConcCheck(const ConcCheckOptions &options);

/** @name Worker wire format / journal payloads. */
/// @{
std::string
serializeConcCheckResult(const ConcCheckConfigResult &result);

std::optional<ConcCheckConfigResult>
deserializeConcCheckResult(const std::string &text);

std::uint64_t concCheckSweepId(const ConcCheckOptions &options);
/// @}

/** Deterministic JSON artifact (BENCH_conc_check.json). */
std::string concCheckToJson(const ConcCheckReport &report);

} // namespace ede

#endif // EDE_FAULT_CONC_CHECK_HH
