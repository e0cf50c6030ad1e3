/**
 * @file
 * Durable-set model-checker tests.
 *
 * Three layers: closed-form lattice mathematics on hand-built graphs
 * (order-ideal counts, crash-window pruning, drain budgets), checker
 * semantics on real micro runs (dedup soundness, seeded-bug
 * sensitivity, shrink minimality), and the cross-validations tying
 * the checker to the sampling fault campaign (every sampled crash
 * image lies inside the enumerated lattice; the generalized frontier
 * tear really does move off the last accepted event).
 */

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "apps/harness.hh"
#include "checker_reference.hh"
#include "fault/crash_image.hh"
#include "fault/model_check/checker.hh"
#include "trace/builder.hh"

namespace ede {
namespace {

/* ------------------------------------------------------------------ */
/* Hand-built graphs: closed-form order-ideal counts.                  */
/* ------------------------------------------------------------------ */

using Edge = std::pair<std::size_t, std::size_t>;

/**
 * A graph of @p n nodes on distinct 256 B media lines with strictly
 * increasing accept cycles (100, 110, ...) and the given pred -> succ
 * edges.  mediaCycle stays kNoCycle unless the test sets it.
 */
PersistOrderGraph
handGraph(std::size_t n, const std::vector<Edge> &edges)
{
    PersistOrderGraph g;
    g.nodes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        g.nodes[i].addr = 0x10000 + 256 * i;
        g.nodes[i].size = 64;
        g.nodes[i].accept = 100 + 10 * i;
    }
    for (const Edge &e : edges)
        g.nodes[e.second].preds.push_back(e.first);
    g.finalize();
    return g;
}

/** Collect every enumerated durable set (as sorted index vectors). */
std::vector<std::vector<std::size_t>>
collectSets(const PersistOrderGraph &g, const EnumerationLimits &lim,
            EnumerationStats *statsOut = nullptr)
{
    std::vector<std::vector<std::size_t>> sets;
    const EnumerationStats stats = forEachDurableSet(
        g, lim, [&](const DurableSetView &view) {
            sets.push_back(view.postSetup);
            return true;
        });
    if (statsOut)
        *statsOut = stats;
    return sets;
}

TEST(ModelCheckEnumerate, ClosedFormIdealCounts)
{
    // A chain of k nodes has exactly k+1 ideals (its prefixes).
    EXPECT_EQ(countOrderIdeals(handGraph(
                  5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}})),
              6u);

    // An antichain of n nodes has 2^n ideals (any subset).
    EXPECT_EQ(countOrderIdeals(handGraph(10, {})), 1u << 10);

    // The diamond 0 < {1, 2} < 3 has 6:
    // {}, {0}, {01}, {02}, {012}, {0123}.
    EXPECT_EQ(countOrderIdeals(handGraph(
                  4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}})),
              6u);

    // Two independent 2-chains: ideals multiply, 3 * 3.
    EXPECT_EQ(countOrderIdeals(handGraph(4, {{0, 2}, {1, 3}})), 9u);

    // The empty run has exactly the empty durable set.
    EXPECT_EQ(countOrderIdeals(handGraph(0, {})), 1u);
}

TEST(ModelCheckEnumerate, EnumeratedSetsAreDistinctClosedAndLegal)
{
    const PersistOrderGraph g =
        handGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
    EnumerationStats stats;
    const auto sets = collectSets(g, {}, &stats);
    EXPECT_EQ(stats.states, 6u);
    EXPECT_FALSE(stats.truncated);
    EXPECT_EQ(stats.rejectedBudget, 0u);

    std::set<std::vector<std::size_t>> distinct(sets.begin(),
                                                sets.end());
    EXPECT_EQ(distinct.size(), sets.size());
    for (const auto &s : sets) {
        EXPECT_TRUE(isLegalDurableSet(g, FaultPlan::kDrainAll, s));
        // Downward closure, checked directly against the edge list.
        const std::set<std::size_t> in(s.begin(), s.end());
        for (std::size_t i : s) {
            for (std::size_t p : g.nodes[i].preds)
                EXPECT_TRUE(in.count(p))
                    << "pred " << p << " of " << i << " missing";
        }
    }
}

TEST(ModelCheckEnumerate, CrashWindowPrunesTheLattice)
{
    // Three unordered events; event 0's media line completes at
    // cycle 115, between accept(1)=110 and accept(2)=120.  Any crash
    // late enough to have accepted event 2 has already made event 0
    // durable, so {2} and {1,2} are unreachable: 6 of the 8 subsets.
    PersistOrderGraph g = handGraph(3, {});
    g.nodes[0].mediaCycle = 115;
    g.finalize();

    EnumerationStats stats;
    const auto sets = collectSets(g, {}, &stats);
    EXPECT_EQ(stats.states, 6u);

    EXPECT_FALSE(isLegalDurableSet(g, FaultPlan::kDrainAll, {2}));
    EXPECT_FALSE(isLegalDurableSet(g, FaultPlan::kDrainAll, {1, 2}));
    EXPECT_TRUE(isLegalDurableSet(g, FaultPlan::kDrainAll, {0, 2}));
    for (const auto &s : sets)
        EXPECT_TRUE(isLegalDurableSet(g, FaultPlan::kDrainAll, s));
}

TEST(ModelCheckEnumerate, DrainBudgetRejectsWideFrontiers)
{
    // Two pending events on distinct media lines: a 1-line drain
    // cannot save both, so {0,1} is infeasible.
    const PersistOrderGraph distinct = handGraph(2, {});
    EnumerationLimits lim;
    lim.drainLines = 1;
    EnumerationStats stats;
    const auto sets = collectSets(distinct, lim, &stats);
    EXPECT_EQ(stats.states, 3u);
    EXPECT_EQ(stats.rejectedBudget, 1u);
    EXPECT_FALSE(isLegalDurableSet(distinct, 1, {0, 1}));
    EXPECT_TRUE(isLegalDurableSet(distinct, 2, {0, 1}));

    // The same two events on ONE media line coalesce into a single
    // drain slot, so even budget 1 admits the full set.
    PersistOrderGraph same = handGraph(2, {{0, 1}});
    same.nodes[1].addr = same.nodes[0].addr + 64;
    same.finalize();
    EnumerationStats sameStats;
    const auto sameSets = collectSets(same, lim, &sameStats);
    EXPECT_EQ(sameStats.states, 3u);
    EXPECT_EQ(sameStats.rejectedBudget, 0u);
    EXPECT_TRUE(isLegalDurableSet(same, 1, {0, 1}));
}

TEST(ModelCheckEnumerate, MaxStatesTruncatesDeterministically)
{
    const PersistOrderGraph g = handGraph(10, {});
    EnumerationLimits lim;
    lim.maxStates = 100;
    EnumerationStats stats;
    const auto first = collectSets(g, lim, &stats);
    EXPECT_EQ(stats.states, 100u);
    EXPECT_TRUE(stats.truncated);

    // The bound is a prefix of one deterministic search order.
    const auto second = collectSets(g, lim);
    EXPECT_EQ(first, second);

    EnumerationLimits full;
    EnumerationStats fullStats;
    const auto all = collectSets(g, full, &fullStats);
    EXPECT_EQ(fullStats.states, 1u << 10);
    EXPECT_FALSE(fullStats.truncated);
    EXPECT_TRUE(std::equal(first.begin(), first.end(), all.begin()));
}

/* ------------------------------------------------------------------ */
/* Real micro runs.                                                    */
/* ------------------------------------------------------------------ */

RunSpec
microSpec()
{
    RunSpec spec;
    spec.txns = 2;
    spec.opsPerTxn = 2;
    spec.seed = 42;
    return spec;
}

AppParams
microParams()
{
    AppParams params;
    params.seed = 42;
    params.arrayLen = 64;
    return params;
}

/** Audited micro run, optionally with the seeded EDK-deletion bug. */
std::unique_ptr<WorkloadHarness>
microRun(Config cfg, AppId app = AppId::Update, bool seedBug = false,
         std::size_t *bugIdx = nullptr)
{
    auto h = std::make_unique<WorkloadHarness>(app, cfg, microSpec(),
                                               microParams());
    h->enableAudit();
    h->generate();
    if (seedBug) {
        const std::size_t idx = seedMissingEdkBug(*h);
        if (bugIdx)
            *bugIdx = idx;
    }
    h->simulate();
    return h;
}

ModelCheckOptions
microOptions()
{
    ModelCheckOptions opts;
    opts.app = AppId::Update;
    opts.seed = 7;
    opts.spec = microSpec();
    opts.appParams = microParams();
    opts.maxStates = 20000;
    return opts;
}

TEST(ModelCheck, IntactConfigsVerifyClean)
{
    const ModelCheckReport report = runModelCheck(microOptions());
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.quarantined.empty());
    ASSERT_EQ(report.configs.size(), 3u);
    for (const ModelCheckConfigResult &r : report.configs) {
        EXPECT_EQ(r.violations, 0u) << configName(r.config);
        EXPECT_TRUE(r.counterexamples.empty());
        EXPECT_FALSE(r.truncated);
        EXPECT_EQ(r.seededBugTraceIdx, kNoEvent);
        // The pipeline never produces forward edges; the graph must
        // not have dropped any.
        EXPECT_EQ(r.orderStats.nonmonotone, 0u);
        EXPECT_GT(r.orderStats.total(), 0u);
        EXPECT_GT(r.states, 1u);
        EXPECT_GT(r.tornVariants, 0u);
        EXPECT_GE(r.uniqueImages, 1u);
        EXPECT_EQ(r.recoveredClean, r.uniqueImages);
    }
    // Fences dominate ordering in B; EDE configurations replace them
    // with line gates (the framework puts the EDK use on the data
    // store, whose ordering the gate carries onto the line's
    // persists).
    EXPECT_GT(report.configs[0].orderStats.fence, 0u);
    EXPECT_GT(report.configs[1].orderStats.lineGate, 0u);
    EXPECT_LT(report.configs[1].orderStats.fence,
              report.configs[0].orderStats.fence);
}

TEST(ModelCheck, SeededBugIsDetectedAndShrunk)
{
    ModelCheckOptions opts = microOptions();
    opts.seedBug = true;
    const ModelCheckReport report = runModelCheck(opts);

    // ok() under seedBug means: planted bugs DETECTED, unaffected
    // configurations still clean.
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.configs.size(), 3u);

    const ModelCheckConfigResult &b = report.configs[0];
    EXPECT_EQ(b.config, Config::B);
    // B orders through DSB SY, not EDKs: nothing to delete, still
    // clean.
    EXPECT_EQ(b.seededBugTraceIdx, kNoEvent);
    EXPECT_EQ(b.violations, 0u);

    for (std::size_t i = 1; i < 3; ++i) {
        const ModelCheckConfigResult &r = report.configs[i];
        EXPECT_NE(r.seededBugTraceIdx, kNoEvent)
            << configName(r.config);
        EXPECT_GT(r.violations, 0u) << configName(r.config);
        ASSERT_FALSE(r.counterexamples.empty())
            << configName(r.config);
        for (const ModelCheckCounterexample &cex : r.counterexamples) {
            // Data durable without its undo entry: recovery cannot
            // roll the half-committed transaction back.
            EXPECT_EQ(cex.invariant, "active-rollback-failed");
            EXPECT_FALSE(cex.durable.empty());
            // Shrunk: far below the full lattice frontier.
            EXPECT_LE(cex.durable.size(), 3u);
        }
    }
}

TEST(ModelCheck, CounterexamplesReproduceAndAreMinimal)
{
    ModelCheckOptions opts = microOptions();
    opts.seedBug = true;
    opts.configs = {Config::IQ};
    const ModelCheckReport report = runModelCheck(opts);
    ASSERT_EQ(report.configs.size(), 1u);
    ASSERT_FALSE(report.configs[0].counterexamples.empty());

    // Re-simulate the identical bugged run and replay the reported
    // counterexamples through a fresh checker.
    std::size_t bugIdx = kNoEvent;
    auto h = microRun(Config::IQ, AppId::Update, /*seedBug=*/true,
                      &bugIdx);
    ASSERT_EQ(bugIdx, report.configs[0].seededBugTraceIdx);
    const PersistOrderGraph graph = buildPersistOrder(*h);
    DurableSetChecker checker(*h, graph);

    for (const ModelCheckCounterexample &cex :
         report.configs[0].counterexamples) {
        const DurableSetChecker::StateVerdict v =
            checker.check(cex.durable, cex.tornIdx, cex.tornMask);
        ASSERT_FALSE(v.duplicate);
        ASSERT_NE(v.invariant, nullptr);
        EXPECT_EQ(cex.invariant, v.invariant);
        EXPECT_EQ(cex.imageHash, v.imageHash);

        // 1-minimality: dropping any single event (where legality
        // permits) must lose the violation.  The shrinker runs to a
        // fixpoint, so this is exactly what it guarantees -- except
        // for the torn event itself, which it keeps by construction.
        for (std::size_t k = 0; k < cex.durable.size(); ++k) {
            if (cex.durable[k] == cex.tornIdx)
                continue;
            std::vector<std::size_t> sub = cex.durable;
            sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(k));
            if (!isLegalDurableSet(graph, FaultPlan::kDrainAll, sub))
                continue;
            DurableSetChecker probe(*h, graph);
            const auto pv =
                probe.check(sub, cex.tornIdx, cex.tornMask);
            EXPECT_FALSE(pv.invariant &&
                         cex.invariant == pv.invariant)
                << "removing event " << cex.durable[k]
                << " still violates: not minimal";
        }
    }

    // The empty durable state (setup only) recovers clean.
    DurableSetChecker empty(*h, graph);
    const auto ev = empty.check({});
    EXPECT_FALSE(ev.duplicate);
    EXPECT_EQ(ev.invariant, nullptr);
}

/** "update/IQ"-style label of one micro lattice. */
std::string
latticeLabel(AppId app, Config cfg)
{
    return std::string(appName(app)) + "/" +
           std::string(configName(cfg));
}

TEST(ModelCheck, DedupNeverMergesDistinctImages)
{
    // Every durable set and torn variant of the micro lattices, in the
    // loop's own order and shuffled (with repeats, a tear of a set's
    // oldest event and a tear whose line a later event rewrites): keys,
    // duplicate flags and verdicts must be what the from-scratch path
    // gives (checker_reference.hh).
    for (AppId app : {AppId::Update, AppId::Swap}) {
        for (Config cfg : {Config::B, Config::IQ, Config::WB}) {
            auto h = microRun(cfg, app);
            const PersistOrderGraph graph = buildPersistOrder(*h);
            DurableSetChecker checker(*h, graph);
            const std::string label = latticeLabel(app, cfg);
            const auto states =
                checker_reference::latticeStates(graph, checker);
            ASSERT_GT(states.size(), 10u);
            checker_reference::expectIncrementalMatchesReference(
                h->system().persistEvents(), h->baselineNvm(), graph,
                undoLogJudge(*h), states, label);
            checker_reference::expectIncrementalMatchesReference(
                h->system().persistEvents(), h->baselineNvm(), graph,
                undoLogJudge(*h),
                checker_reference::shuffledStates(graph, states, label),
                label + " shuffled");
        }
    }
}

TEST(ModelCheck, StateKeyCountsAbsentAndZeroLinesAlike)
{
    MemoryImage a;
    a.write<std::uint64_t>(0x10008, 0xfeedull);
    EXPECT_TRUE(StateKey::of(MemoryImage{}) == StateKey{});
    EXPECT_FALSE(StateKey::of(a) == StateKey{});

    // Same content, more pages and lines: a page written only with
    // zeros, and a line written and then cleared again.
    MemoryImage b = a;
    b.write<std::uint64_t>(0x40000, 0);
    b.write<std::uint64_t>(0x10040, 7);
    b.write<std::uint64_t>(0x10040, 0);
    ASSERT_GT(b.pageCount(), a.pageCount());
    ASSERT_TRUE(a.contentEquals(b));
    EXPECT_TRUE(StateKey::of(a) == StateKey::of(b));

    // One byte, or the same bytes one line over, is another content.
    MemoryImage c = a;
    c.write<std::uint8_t>(0x1003f, 1);
    EXPECT_FALSE(StateKey::of(a) == StateKey::of(c));
    MemoryImage d;
    d.write<std::uint64_t>(0x10048, 0xfeedull);
    EXPECT_FALSE(StateKey::of(a) == StateKey::of(d));
}

TEST(ModelCheck, FlatTornCandidatesMatchTheReference)
{
    // Hand-built: events 2 and 3 share a 64 B line with no edge between
    // them.  Real runs chain such events through the same-media-line
    // edge, so only here does the last-of-line rule decide alone.
    PersistOrderGraph hand = handGraph(5, {{0, 1}});
    hand.nodes[3].addr = hand.nodes[2].addr;
    hand.finalize();
    const std::vector<PersistEvent> handEvents(hand.nodes.size());
    DurableSetChecker handChecker(handEvents, MemoryImage{}, hand,
                                  [](MemoryImage &) {
                                      return DurableSetChecker::StateVerdict{};
                                  });
    EXPECT_EQ(handChecker.tornCandidates({1, 2, 3}, 4),
              (std::vector<std::size_t>{3, 1}));
    checker_reference::expectFlatTornCandidates(hand, handChecker, "hand");

    for (AppId app : {AppId::Update, AppId::Swap}) {
        for (Config cfg : {Config::B, Config::IQ, Config::WB}) {
            auto h = microRun(cfg, app);
            const PersistOrderGraph graph = buildPersistOrder(*h);
            DurableSetChecker checker(*h, graph);
            checker_reference::expectFlatTornCandidates(
                graph, checker, latticeLabel(app, cfg));
        }
    }

    // B's fence-heavy graph at the crash benchmark's update size (24
    // txns x 8 ops): DSB roots give its late events long pred lists.
    WorkloadHarness h(AppId::Update, Config::B,
                      RunSpec{/*txns=*/24, /*opsPerTxn=*/8, /*seed=*/42},
                      microParams());
    h.enableAudit();
    h.generate();
    h.simulate();
    const PersistOrderGraph graph = buildPersistOrder(h);
    ASSERT_GT(graph.stats.fence, 100000u);
    DurableSetChecker checker(h, graph);
    checker_reference::expectFlatTornCandidates(graph, checker,
                                                "update/B 24x8");
}

TEST(ModelCheck, WaitEdgesCoverAllProducersUnderAcceptInversion)
{
    // At txns=4, ops=6 the WB write buffer accepts two successive
    // kData definitions out of program order (hot-line coalescing),
    // severing the key-chain shortcut between them.  The WAIT_KEY
    // commit barrier tracks EVERY outstanding cvap of the key
    // (WaitCounters), so the graph must order all of them before the
    // commit sequence -- modeling only the newest definition lets
    // the enumerator fabricate a torn-data-behind-commit state the
    // hardware forbids, which is exactly the regression this guards.
    ModelCheckOptions opts = microOptions();
    opts.spec.txns = 4;
    opts.spec.opsPerTxn = 6;
    opts.maxStates = 500000;
    const ModelCheckReport report = runModelCheck(opts);
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.configs.size(), 3u);
    for (const ModelCheckConfigResult &r : report.configs) {
        EXPECT_EQ(r.violations, 0u) << configName(r.config);
        EXPECT_FALSE(r.truncated) << configName(r.config);
    }
}

TEST(ModelCheck, OneCoreWalkReadsNoWaitCompletion)
{
    // Only the cross-core WAIT join needs a WAIT's completion cycle,
    // so a one-core walk must order the persist behind the WAIT from
    // the trace alone -- here with no completion cycles recorded.
    Trace t;
    TraceBuilder b(t);
    b.cvap(2, 0x100000, {/*def=*/4, /*use=*/kZeroEdk});
    b.waitKey(4);
    b.cvap(2, 0x200000);
    std::vector<PersistEvent> events(2);
    events[0].addr = 0x100000;
    events[0].size = 64;
    events[0].cycle = 10;
    events[0].origin = 0;
    events[1].addr = 0x200000;
    events[1].size = 64;
    events[1].cycle = 30;
    events[1].origin = 2;
    const std::vector<Cycle> unrecorded;

    const PersistOrderGraph g = buildJointPersistOrder(
        {&t, 1}, events, {}, {&unrecorded, 1},
        /*setupCompleteCycle=*/20, /*lineBytes=*/256);
    EXPECT_EQ(g.preSetupCount, 1u);  // The setup cut forces event 0.
    EXPECT_EQ(g.nodes[1].preds, std::vector<std::size_t>{0});
    EXPECT_EQ(g.stats.fence, 1u);
    EXPECT_EQ(g.stats.crossWait, 0u);
}

/* ------------------------------------------------------------------ */
/* Cross-validation against the sampling fault campaign.               */
/* ------------------------------------------------------------------ */

TEST(ModelCheck, CampaignImagesLieInsideTheLattice)
{
    for (Config cfg : {Config::B, Config::IQ, Config::WB}) {
        auto h = microRun(cfg);
        const PersistOrderGraph graph = buildPersistOrder(*h);
        const DurableSetChecker checker(*h, graph);
        const auto &events = h->system().persistEvents();
        const auto &media = h->system().mediaWriteEvents();
        ASSERT_FALSE(events.empty());

        // Crash at and just after every post-setup accept, under a
        // spread of plans (perfect and failing ADR, every tear kind).
        std::set<Cycle> crashes;
        for (const PersistEvent &ev : events) {
            if (ev.cycle < h->setupCompleteCycle())
                continue;
            crashes.insert(ev.cycle);
            crashes.insert(ev.cycle + 1);
        }
        std::vector<FaultPlan> plans;
        for (std::uint32_t drain : {FaultPlan::kDrainAll, 2u, 1u}) {
            for (TearKind tear :
                 {TearKind::None, TearKind::Prefix, TearKind::Suffix,
                  TearKind::Interleaved}) {
                FaultPlan plan;
                plan.seed = 0x5eedull + plans.size();
                plan.drainLines = drain;
                plan.tear = tear;
                plans.push_back(plan);
            }
        }

        std::size_t checkedImages = 0;
        for (Cycle crash : crashes) {
            for (const FaultPlan &plan : plans) {
                MemoryImage img = h->baselineNvm();
                const FaultyImageReport rep = applyFaultyPersistEvents(
                    img, events, media, crash, plan, 256, &graph);
                ASSERT_GE(rep.durableCount, graph.preSetupCount);

                // The sampled durable set, as the model checker
                // names it: post-setup indices only.
                std::vector<std::size_t> postSetup;
                for (std::size_t i = graph.preSetupCount;
                     i < rep.durableCount; ++i)
                    postSetup.push_back(i);

                // Contained in the lattice under the same budget...
                EXPECT_TRUE(isLegalDurableSet(graph, plan.drainLines,
                                              postSetup))
                    << configName(cfg) << " crash=" << crash;

                // ...and byte-identical when re-materialized through
                // the checker's path.
                const std::size_t torn =
                    rep.tore ? rep.tornIdx : kNoEvent;
                const MemoryImage remat = checker.materialize(
                    postSetup, torn, rep.tornMask);
                EXPECT_TRUE(remat.contentEquals(img))
                    << configName(cfg) << " crash=" << crash
                    << " tear=" << tearKindName(plan.tear)
                    << " drain=" << plan.drainLines;
                ++checkedImages;
            }
        }
        EXPECT_GT(checkedImages, 100u) << configName(cfg);
    }
}

TEST(ModelCheck, FrontierTearGeneralizesBeyondTheLastEvent)
{
    auto h = microRun(Config::IQ);
    const PersistOrderGraph graph = buildPersistOrder(*h);
    const auto &events = h->system().persistEvents();
    const auto &media = h->system().mediaWriteEvents();

    // Recompute the frontier-candidate set the image builder uses so
    // the test can find a crash cycle with a real choice to make.
    const Addr cacheMask = ~static_cast<Addr>(63);
    auto candidatesAt = [&](Cycle crash) {
        std::size_t cut = 0;
        while (cut < events.size() && events[cut].cycle <= crash)
            ++cut;
        std::unordered_map<Addr, std::size_t> lastOfLine;
        for (std::size_t i = 0; i < cut; ++i)
            lastOfLine[events[i].addr & cacheMask] = i;
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < cut; ++i) {
            const PersistNode &node = graph.nodes[i];
            if (node.size <= 8)
                continue;
            if (node.mediaCycle != kNoCycle &&
                node.mediaCycle <= crash)
                continue;  // Already on media: cannot tear.
            if (graph.minSucc[i] < cut)
                continue;  // A durable successor pins it whole.
            if (lastOfLine[events[i].addr & cacheMask] != i)
                continue;  // A younger write overwrites the tear.
            out.push_back(i);
        }
        return std::make_pair(cut, out);
    };

    Cycle crash = kNoCycle;
    std::size_t cut = 0;
    for (const PersistEvent &ev : events) {
        const auto [c, cands] = candidatesAt(ev.cycle);
        if (cands.size() >= 2) {
            crash = ev.cycle;
            cut = c;
            break;
        }
    }
    ASSERT_NE(crash, kNoCycle)
        << "no crash cycle with multiple frontier candidates; the "
           "generalized tear would never differ from the old one";

    std::set<std::size_t> seen;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.tear = TearKind::Prefix;

        MemoryImage img = h->baselineNvm();
        const FaultyImageReport rep = applyFaultyPersistEvents(
            img, events, media, crash, plan, 256, &graph);
        ASSERT_TRUE(rep.tore);
        ASSERT_EQ(rep.durableCount, cut);
        seen.insert(rep.tornIdx);

        // Whatever was picked is a genuine frontier event...
        EXPECT_GE(graph.minSucc[rep.tornIdx], cut);
        EXPECT_GT(events[rep.tornIdx].size, 8u);

        // ...while the order-blind path still tears only the last.
        MemoryImage legacy = h->baselineNvm();
        const FaultyImageReport old = applyFaultyPersistEvents(
            legacy, events, media, crash, plan, 256, nullptr);
        EXPECT_EQ(old.tornIdx, cut - 1);
    }
    // The seed really selects among candidates: several distinct
    // picks, at least one off the last accepted event.
    EXPECT_GE(seen.size(), 2u);
    EXPECT_TRUE(seen.count(cut - 1) == 0 || seen.size() > 1);
    bool offLast = false;
    for (std::size_t idx : seen)
        offLast |= idx != cut - 1;
    EXPECT_TRUE(offLast);
}

/* ------------------------------------------------------------------ */
/* Wire format and isolation plumbing.                                 */
/* ------------------------------------------------------------------ */

void
expectResultEq(const ModelCheckConfigResult &a,
               const ModelCheckConfigResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.freeEvents, b.freeEvents);
    EXPECT_EQ(a.orderStats.sameLine, b.orderStats.sameLine);
    EXPECT_EQ(a.orderStats.edk, b.orderStats.edk);
    EXPECT_EQ(a.orderStats.keyChain, b.orderStats.keyChain);
    EXPECT_EQ(a.orderStats.fence, b.orderStats.fence);
    EXPECT_EQ(a.orderStats.lineGate, b.orderStats.lineGate);
    EXPECT_EQ(a.orderStats.nonmonotone, b.orderStats.nonmonotone);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.rejectedBudget, b.rejectedBudget);
    EXPECT_EQ(a.tornVariants, b.tornVariants);
    EXPECT_EQ(a.uniqueImages, b.uniqueImages);
    EXPECT_EQ(a.recoveredClean, b.recoveredClean);
    EXPECT_EQ(a.tornLogDetected, b.tornLogDetected);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.seededBugTraceIdx, b.seededBugTraceIdx);
    ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
    for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
        const auto &ca = a.counterexamples[i];
        const auto &cb = b.counterexamples[i];
        EXPECT_EQ(ca.invariant, cb.invariant);
        EXPECT_EQ(ca.durable, cb.durable);
        EXPECT_EQ(ca.tornIdx, cb.tornIdx);
        EXPECT_EQ(ca.tornMask, cb.tornMask);
        EXPECT_EQ(ca.imageHash, cb.imageHash);
        EXPECT_EQ(ca.rollbackTargets, cb.rollbackTargets);
    }
}

TEST(ModelCheck, WireFormatRoundTrips)
{
    // A result with counterexamples (the hardest payload) from a
    // real seeded-bug run.
    ModelCheckOptions opts = microOptions();
    opts.seedBug = true;
    opts.configs = {Config::WB};
    const ModelCheckReport report = runModelCheck(opts);
    ASSERT_EQ(report.configs.size(), 1u);
    ASSERT_FALSE(report.configs[0].counterexamples.empty());

    const std::string wire =
        serializeModelCheckResult(report.configs[0]);
    const auto back = deserializeModelCheckResult(wire);
    ASSERT_TRUE(back.has_value());
    expectResultEq(report.configs[0], *back);

    EXPECT_FALSE(deserializeModelCheckResult("").has_value());
    EXPECT_FALSE(deserializeModelCheckResult("garbage\n").has_value());
}

TEST(ModelCheck, SweepIdCoversTheSearchParameters)
{
    const ModelCheckOptions base = microOptions();
    const std::uint64_t id = modelCheckSweepId(base);

    ModelCheckOptions mut = base;
    mut.maxStates += 1;
    EXPECT_NE(modelCheckSweepId(mut), id);
    mut = base;
    mut.seedBug = true;
    EXPECT_NE(modelCheckSweepId(mut), id);
    mut = base;
    mut.drainLines = 3;
    EXPECT_NE(modelCheckSweepId(mut), id);
    mut = base;
    mut.configs = {Config::B};
    EXPECT_NE(modelCheckSweepId(mut), id);

    // Isolation knobs do not change the experiment's identity.
    mut = base;
    mut.isolate = true;
    mut.jobs = 4;
    EXPECT_EQ(modelCheckSweepId(mut), id);
}

TEST(ModelCheck, ChaosCrashQuarantinesTheConfig)
{
    ModelCheckOptions opts = microOptions();
    opts.configs = {Config::B, Config::IQ};
    opts.isolate = true;
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseMs = 1;
    opts.retry.backoffMaxMs = 2;
    opts.chaosCrashConfig = "IQ";
    const ModelCheckReport report = runModelCheck(opts);

    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].config, Config::IQ);
    ASSERT_EQ(report.configs.size(), 1u);
    EXPECT_EQ(report.configs[0].config, Config::B);
    EXPECT_EQ(report.configs[0].violations, 0u);
}

} // namespace
} // namespace ede
