/**
 * @file
 * Crash-consistency model checker over the durable-set lattice.
 *
 * The fault campaign samples crash cycles and reconstructs one
 * accept-order-prefix image per sample.  The model checker is the
 * exhaustive counterpart: it derives the persist-ordering partial
 * order of one simulated run (persist_order.hh), enumerates *every*
 * legal durable set (enumerate.hh) with torn-persist variants at each
 * set's frontier, reaches each state incrementally from the previous
 * one through the recorded persist events, deduplicates by a content
 * key, and pushes every unique image through undo-log recovery and
 * the application's invariant oracle.  A violating state is shrunk to
 * a minimal durable set before being reported as a counterexample.
 *
 * The checker's sensitivity is validated by a seeded bug: deleting
 * one load-bearing EDK operand from the workload's first
 * transactional write (seedMissingEdkBug) removes the log-before-data
 * ordering edge, and the enumerator must then find a state with the
 * data durable but its undo entry missing -- the
 * "active-rollback-failed" invariant -- while the intact program
 * verifies clean.
 */

#ifndef EDE_FAULT_MODEL_CHECK_CHECKER_HH
#define EDE_FAULT_MODEL_CHECK_CHECKER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/harness.hh"
#include "exp/worker.hh"
#include "fault/campaign.hh"
#include "fault/model_check/enumerate.hh"
#include "fault/model_check/persist_order.hh"

namespace ede {

/** Derive the persist-order graph of a completed, audited run. */
PersistOrderGraph buildPersistOrder(const WorkloadHarness &h);

/**
 * Seeded-bug mutator: clear the EDK use operand of the first
 * transactional data store (the operand that orders it behind its
 * undo-log entry's persist).  Must run after generate() and before
 * simulate().  @return the mutated trace index, or kNoEvent when the
 * configuration carries no EDK there (fence-based configurations are
 * not affected by this bug).
 */
std::size_t seedMissingEdkBug(WorkloadHarness &h);

/** One shrunk violating durable state. */
struct ModelCheckCounterexample
{
    std::string invariant;            ///< crashInvariantName() string.
    std::vector<std::size_t> durable; ///< Post-setup event indices.
    std::size_t tornIdx = kNoEvent;   ///< Torn event, if any.
    std::uint64_t tornMask = 0;       ///< Surviving-chunk mask.
    std::uint64_t imageHash = 0;      ///< Canonical content hash.
    std::vector<Addr> rollbackTargets;///< Recovery's witness trail.

    /** One-line human-readable rendering. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<ModelCheckCounterexample> auto &c)
{
    v("invariant", c.invariant);
    v("durable", c.durable);
    v("torn_idx", nullUnless(c.tornIdx, c.tornIdx != kNoEvent));
    v("torn_mask", c.tornMask);
    v("image_hash", c.imageHash);
    v("rollback_targets", c.rollbackTargets);
}

/**
 * Verdict and tallies for one configuration.  `states` counts
 * enumerated durable sets, `tornVariants` the extra torn states;
 * `uniqueImages` is after content dedup and is what recovery actually
 * ran on.
 */
struct ModelCheckConfigResult
{
    Config config = Config::B;
    Cycle cycles = 0;                 ///< Simulated run length.
    std::size_t events = 0;           ///< Persist events recorded.
    std::size_t freeEvents = 0;       ///< Post-setup (enumerable).
    PersistOrderStats orderStats;     ///< Edge tallies.
    std::uint64_t states = 0;         ///< Durable sets enumerated.
    std::uint64_t rejectedBudget = 0; ///< Drain-infeasible leaves.
    std::uint64_t tornVariants = 0;   ///< Torn states materialized.
    std::uint64_t uniqueImages = 0;   ///< Distinct image contents.
    std::uint64_t recoveredClean = 0; ///< Unique images passing.
    std::uint64_t tornLogDetected = 0;///< Passing via discarded entry.
    std::uint64_t violations = 0;     ///< Unique violating images.
    bool truncated = false;           ///< A search limit tripped.
    std::size_t seededBugTraceIdx =
        kNoEvent;                     ///< Mutated op (seed-bug runs).
    std::vector<ModelCheckCounterexample> counterexamples;
};

void
visitFields(auto &v, FieldsOf<ModelCheckConfigResult> auto &r)
{
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
    v("torn_log_detected", r.tornLogDetected);
    v("violations", r.violations);
    v("truncated", r.truncated);
    v.derived("coverage", r.truncated ? "truncated" : "exact");
    v("seeded_bug_trace_idx",
      omitUnless(r.seededBugTraceIdx, r.seededBugTraceIdx != kNoEvent));
    v("counterexamples", r.counterexamples);
}

/** Model-check parameters; everything derives from one root seed. */
struct ModelCheckOptions
{
    AppId app = AppId::Update;
    std::uint64_t seed = 1;

    /**
     * Deliberately tiny default workload: the lattice is exponential
     * in the free (post-setup) events, and two transactions of two
     * ops already cover the whole commit protocol twice.
     */
    RunSpec spec{/*txns=*/2, /*opsPerTxn=*/2, /*seed=*/42};
    AppParams appParams{/*seed=*/42, /*arrayLen=*/64};

    std::vector<Config> configs{Config::B, Config::IQ, Config::WB};

    /** ADR drain budget for legality (default: perfect ADR). */
    std::uint32_t drainLines = FaultPlan::kDrainAll;

    /** Deterministic search bound (0 = unlimited). */
    std::uint64_t maxStates = 20000;

    /** Wall-clock bound, ms (0 = unlimited; NONDETERMINISTIC which
     * states are covered when it trips -- prefer maxStates). */
    std::uint64_t budgetMs = 0;

    bool torn = true;      ///< Materialize torn frontier variants.
    bool seedBug = false;  ///< Apply seedMissingEdkBug before running.

    /** Counterexamples kept per configuration. */
    std::size_t maxCounterexamples = 4;

    /** Parallel jobs for the per-config phase (0 = hardware). */
    unsigned jobs = 1;

    /** @name Process isolation (same contract as CampaignOptions). */
    /// @{
    bool isolate = false;
    exp::WorkerLimits limits;
    exp::RetryPolicy retry;
    std::string journalPath;  ///< Requires isolate; empty disables.
    bool resume = false;
    std::string chaosCrashConfig;  ///< Worker abort() hook (tests/CI).
    /// @}
};

/** The check's identity: isolation and job count never change it. */
void
visitFields(auto &v, FieldsOf<ModelCheckOptions> auto &o)
{
    v("app", o.app, appName);
    v("seed", o.seed);
    v("spec", o.spec);
    v("app_params", o.appParams);
    v("configs", o.configs, configName);
    v("drain_lines", o.drainLines);
    v("max_states", o.maxStates);
    v("budget_ms", o.budgetMs);
    v("torn", o.torn);
    v("seed_bug", o.seedBug);
    v("max_counterexamples", o.maxCounterexamples);
}

/** The whole model check's outcome. */
struct ModelCheckReport
{
    ModelCheckOptions options;
    std::vector<ModelCheckConfigResult> configs;
    std::vector<QuarantinedConfig> quarantined;

    /**
     * Acceptance: nothing quarantined; every intact configuration
     * verifies clean; and when the seeded bug was actually planted
     * (EDE configurations), the checker detected it.
     */
    bool ok() const;

    /** Multi-line human-readable summary with counterexamples. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<ModelCheckReport> auto &r)
{
    v("model_check", r.options);
    v("configs", r.configs);
    v("quarantined", r.quarantined);
    v.derived("ok", r.ok());
}

/** Run the model check across configurations. */
ModelCheckReport runModelCheck(const ModelCheckOptions &options);

/**
 * Content key of a memory image: the sum, mod 2^128, of a 128-bit
 * hash of (address, bytes) over every 64 B line holding a nonzero
 * byte.  Absent and all-zero lines contribute nothing, so images equal
 * under MemoryImage::contentEquals share a key, and a sum can be
 * updated line by line as an image changes.
 */
struct StateKey
{
    static constexpr std::size_t kLineBytes = 64;

    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    StateKey &
    operator+=(StateKey o)
    {
        lo += o.lo;
        hi += o.hi + (lo < o.lo);
        return *this;
    }

    StateKey &
    operator-=(StateKey o)
    {
        hi -= o.hi + (lo < o.lo);
        lo -= o.lo;
        return *this;
    }

    bool operator==(const StateKey &) const = default;

    /** Key of @p img computed from scratch over its pages. */
    static StateKey of(const MemoryImage &img);
};

/**
 * Materializes, deduplicates and checks durable states of one
 * completed run.  Exposed so tests can drive single states (e.g. the
 * campaign-containment cross-validation re-materializes a sampled
 * crash image through the same path).
 *
 * check() keeps one working image, the state it checked last, and an
 * undo stack of 64 B pre-images: it reaches the next state by undoing
 * back to the first event where the two states differ and applying
 * the rest, and keeps the StateKey of the working image current line
 * by line.  The enumerator's sets differ at their ends and a torn
 * variant differs from its set in one event, so that tail is short.
 * materialize() and shrink() rebuild from the setup image instead and
 * serve as the from-scratch reference.
 */
class DurableSetChecker
{
  public:
    /** Recovery + oracle verdict on one state. */
    struct StateVerdict
    {
        bool duplicate = false;     ///< Content key seen before.
        bool appOk = true;
        std::uint64_t entriesTorn = 0;
        const char *invariant = nullptr;  ///< Violated invariant name.
        StateKey key;               ///< Content key (check() only).
        /** Canonical content hash; check() fills it on violations. */
        std::uint64_t imageHash = 0;
        std::vector<Addr> rollbackTargets;
    };

    /**
     * Recovery-and-oracle hook: run recovery on the materialized
     * image in place and report the verdict (invariant must point at
     * a string with static storage duration).
     */
    using StateJudge = std::function<StateVerdict(MemoryImage &)>;

    /**
     * @p h must be audited and simulated.  The graph reference must
     * outlive the checker.  Judges through the undo-log recovery and
     * the application's checkRecovered oracle.
     */
    DurableSetChecker(const WorkloadHarness &h,
                      const PersistOrderGraph &graph);

    /**
     * Generic form: materialize from @p events (accept order, data
     * recorded) on top of @p baselineNvm, judge each unique image
     * with @p judge.  The events and graph references must outlive
     * the checker; graph.preSetupCount leading events are forced into
     * the base image.  The N-core concurrent checker judges with the
     * kernel oracles through this hook; the single-core constructor
     * above delegates here.
     */
    DurableSetChecker(const std::vector<PersistEvent> &events,
                      const MemoryImage &baselineNvm,
                      const PersistOrderGraph &graph,
                      StateJudge judge);

    /**
     * The image a crash leaving exactly {setup events} + @p postSetup
     * durable produces; @p tornIdx (an element of the set) optionally
     * tears to the surviving chunks in @p tornMask.
     */
    MemoryImage materialize(const std::vector<std::size_t> &postSetup,
                            std::size_t tornIdx = kNoEvent,
                            std::uint64_t tornMask = 0) const;

    /**
     * Reach, dedup, recover and judge one durable state (the image
     * materialize() would build).  Duplicate states short-circuit
     * (verdict.duplicate); a new one is judged on a copy of the
     * working image.
     */
    StateVerdict check(const std::vector<std::size_t> &postSetup,
                       std::size_t tornIdx = kNoEvent,
                       std::uint64_t tornMask = 0);

    /** Recover and judge @p img in place, bypassing the dedup cache. */
    StateVerdict judge(MemoryImage &img) const;

    /**
     * Torn-variant candidates of @p postSetup (ascending, as
     * enumerated): events maximal in the set, still pending at the
     * earliest legal crash cycle, last of their cache line within the
     * set, and wider than one 8-byte chunk.  At most @p cap, youngest
     * first.
     */
    std::vector<std::size_t>
    tornCandidates(const std::vector<std::size_t> &postSetup,
                   std::size_t cap);

    /**
     * Greedily remove post-setup events (youngest first, keeping
     * legality under @p drainLines) while the verdict still names
     * @p invariant; returns the minimal set.  An untorn variant is
     * tried first; @p tornIdx / @p tornMask are updated to what the
     * minimal counterexample actually needs.  Shrink probes bypass
     * the dedup cache.
     */
    std::vector<std::size_t>
    shrink(const std::vector<std::size_t> &postSetup,
           std::size_t &tornIdx, std::uint64_t &tornMask,
           std::uint32_t drainLines, const std::string &invariant);

    std::uint64_t uniqueImages() const { return uniqueImages_; }

  private:
    /** One applied event: whole, or torn to the chunks in mask. */
    struct Step
    {
        std::size_t event = kNoEvent;
        bool torn = false;
        std::uint64_t mask = 0;    ///< 0 unless torn.
        std::size_t undoMark = 0;  ///< undo_ size before the event.

        bool
        same(const Step &o) const
        {
            return event == o.event && torn == o.torn && mask == o.mask;
        }
    };

    /** A 64 B line's bytes before one step wrote it. */
    struct LineUndo
    {
        Addr line = 0;
        StateKey delta;  ///< Key change the write made.
        std::array<std::uint8_t, StateKey::kLineBytes> bytes{};
    };

    struct KeyHash
    {
        std::size_t
        operator()(const StateKey &k) const
        {
            return static_cast<std::size_t>(k.lo);
        }
    };

    void apply(Step step);
    void undoTo(std::size_t depth);

    const std::vector<PersistEvent> &events_;
    const PersistOrderGraph &graph_;
    StateJudge judge_;
    MemoryImage setupImage_;  ///< Baseline + pre-setup events.

    /** @name check()'s incremental state. */
    /// @{
    MemoryImage work_;            ///< setupImage_ + applied_.
    StateKey workKey_;            ///< StateKey::of(work_).
    std::vector<Step> applied_;   ///< The last checked state.
    std::vector<LineUndo> undo_;  ///< Pre-images, oldest first.
    std::unordered_set<StateKey, KeyHash> seenKeys_;
    /// @}

    /** @name tornCandidates()'s per-node marks (valid == epoch). */
    /// @{
    std::vector<std::size_t> lineId_;     ///< Dense 64 B line per node.
    std::vector<std::uint32_t> succMark_; ///< Has a later successor.
    std::vector<std::uint32_t> lineMark_; ///< Line seen later in set.
    std::uint32_t epoch_ = 0;
    /// @}

    std::uint64_t uniqueImages_ = 0;
};

/**
 * The one-core judge: undo-log recovery, then the application's
 * checkRecovered oracle.  @p h must outlive the judge.
 */
DurableSetChecker::StateJudge undoLogJudge(const WorkloadHarness &h);

/**
 * The durable-set check loop of both checkers: enumerate every legal
 * durable set of @p graph within @p options' limits, add torn variants
 * at each set's frontier (chunk masks drawn from @p tornSeed), dedup,
 * judge, and shrink the first options.maxCounterexamples violations
 * into counterexamples.  Tallies land in @p result, a
 * ModelCheckConfigResult or ConcCheckConfigResult.  The one-core
 * extras ride along where @p result has room for them: the torn-log
 * tally and each counterexample's rollback targets.
 */
template <class Options, class Result>
void
checkDurableSets(const Options &options, std::uint64_t tornSeed,
                 const PersistOrderGraph &graph,
                 DurableSetChecker &checker, Result &result)
{
    result.events = graph.nodes.size();
    result.freeEvents = graph.nodes.size() - graph.preSetupCount;
    result.orderStats = graph.stats;

    auto handleState = [&](const std::vector<std::size_t> &set,
                           std::size_t tornIdx,
                           std::uint64_t tornMask) {
        const DurableSetChecker::StateVerdict v =
            checker.check(set, tornIdx, tornMask);
        if (v.duplicate)
            return;
        if (!v.invariant) {
            ++result.recoveredClean;
            if constexpr (requires { result.tornLogDetected; }) {
                if (v.entriesTorn)
                    ++result.tornLogDetected;
            }
            return;
        }
        ++result.violations;
        if (result.counterexamples.size() >= options.maxCounterexamples)
            return;
        auto &cex = result.counterexamples.emplace_back();
        cex.invariant = v.invariant;
        cex.tornIdx = tornIdx;
        cex.tornMask = tornMask;
        cex.durable = checker.shrink(set, cex.tornIdx, cex.tornMask,
                                     options.drainLines, cex.invariant);
        MemoryImage img =
            checker.materialize(cex.durable, cex.tornIdx, cex.tornMask);
        cex.imageHash = img.canonicalContentHash();
        if constexpr (requires { cex.rollbackTargets; })
            cex.rollbackTargets = checker.judge(img).rollbackTargets;
    };

    EnumerationLimits limits;
    limits.drainLines = options.drainLines;
    limits.maxStates = options.maxStates;
    limits.budgetMs = options.budgetMs;

    const EnumerationStats stats = forEachDurableSet(
        graph, limits, [&](const DurableSetView &view) {
            handleState(view.postSetup, kNoEvent, 0);
            if (!options.torn)
                return true;
            for (std::size_t cand :
                 checker.tornCandidates(view.postSetup, /*cap=*/4)) {
                const std::size_t chunks =
                    (graph.nodes[cand].size + 7) / 8;
                for (TearKind kind : {TearKind::Prefix, TearKind::Suffix,
                                      TearKind::Interleaved}) {
                    FaultPlan tp;
                    tp.seed = mixSeed(
                        tornSeed,
                        cand * 8 + static_cast<std::uint64_t>(kind));
                    tp.tear = kind;
                    ++result.tornVariants;
                    handleState(view.postSetup, cand,
                                tornChunkMask(tp, chunks));
                }
            }
            return true;
        });

    result.states = stats.states;
    result.rejectedBudget = stats.rejectedBudget;
    result.truncated = stats.truncated;
    result.uniqueImages = checker.uniqueImages();
}

/** @name Worker wire format / journal payloads. */
/// @{
std::string
serializeModelCheckResult(const ModelCheckConfigResult &result);

std::optional<ModelCheckConfigResult>
deserializeModelCheckResult(const std::string &text);

std::uint64_t modelCheckSweepId(const ModelCheckOptions &options);
/// @}

/** Deterministic JSON artifact (BENCH_model_check.json). */
std::string modelCheckToJson(const ModelCheckReport &report);

} // namespace ede

#endif // EDE_FAULT_MODEL_CHECK_CHECKER_HH
