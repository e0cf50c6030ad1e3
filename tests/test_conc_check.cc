/**
 * @file
 * Cross-core crash-consistency checker tests.
 *
 * Four layers: closed-form mathematics of the joint two-core lattice
 * (independent cores multiply their ideal counts; a cross-core WAIT
 * edge strictly shrinks the lattice), structural properties of the
 * joint persist order derived from real N-core runs (cross-core
 * edges present, remote persists genuinely outstanding at crash
 * points), the sensitivity gate (the seeded missing-WAIT bug is
 * detected with a shrunk counterexample at 2 and 4 cores while the
 * intact program verifies clean), and the cross-validation tying the
 * multi-core fault campaign to the checker: every sampled cross-core
 * crash image is an ideal of the joint lattice and re-materializes
 * byte-identically through the checker's path.
 */

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "apps/conc_harness.hh"
#include "checker_reference.hh"
#include "fault/conc_campaign.hh"
#include "fault/conc_check.hh"
#include "fault/crash_image.hh"
#include "fault/model_check/checker.hh"
#include "sim/session.hh"

namespace ede {
namespace {

/* ------------------------------------------------------------------ */
/* Closed-form joint-lattice mathematics.                              */
/* ------------------------------------------------------------------ */

using Edge = std::pair<std::size_t, std::size_t>;

/**
 * A two-core joint graph: core 0 contributes a chain of @p m nodes,
 * core 1 a chain of @p n nodes, interleaved in accept order (core 0
 * even cycles, core 1 odd) on distinct 256 B media lines, plus the
 * given extra cross-core edges.
 */
PersistOrderGraph
jointGraph(std::size_t m, std::size_t n,
           const std::vector<Edge> &cross = {})
{
    PersistOrderGraph g;
    g.nodes.resize(m + n);
    for (std::size_t i = 0; i < m + n; ++i) {
        g.nodes[i].addr = 0x10000 + 256 * i;
        g.nodes[i].size = 64;
        g.nodes[i].accept = 100 + 10 * i;
    }
    // Core 0 owns indices [0, m), core 1 owns [m, m + n); each core's
    // events form a chain, exactly like a per-core persist walk.
    for (std::size_t i = 1; i < m; ++i)
        g.nodes[i].preds.push_back(i - 1);
    for (std::size_t i = m + 1; i < m + n; ++i)
        g.nodes[i].preds.push_back(i - 1);
    for (const Edge &e : cross)
        g.nodes[e.second].preds.push_back(e.first);
    g.finalize();
    return g;
}

TEST(ConcLattice, IndependentCoresIdealsMultiply)
{
    // Two independent per-core chains: ideals are pairs of per-chain
    // prefixes, so the counts multiply: (m + 1) * (n + 1).
    EXPECT_EQ(countOrderIdeals(jointGraph(2, 2)), 9u);
    EXPECT_EQ(countOrderIdeals(jointGraph(3, 2)), 12u);
    EXPECT_EQ(countOrderIdeals(jointGraph(4, 5)), 30u);
    EXPECT_EQ(countOrderIdeals(jointGraph(0, 3)), 4u);
}

TEST(ConcLattice, CrossCoreWaitEdgeStrictlyShrinks)
{
    // WAIT-coupling the cores removes every ideal containing the
    // consumer's event without the producer's: strictly fewer states
    // than the independent product, and monotonically fewer as more
    // cross-core edges land.
    const std::uint64_t independent = countOrderIdeals(jointGraph(2, 2));
    ASSERT_EQ(independent, 9u);

    // Core 1's second event (index 3) waits on core 0's first (0):
    // kills {3-without-0} ideals -- here exactly {1: the set {2,3}}
    // ... enumerate rather than hand-count:
    const std::uint64_t oneWait =
        countOrderIdeals(jointGraph(2, 2, {{0, 3}}));
    EXPECT_LT(oneWait, independent);

    // A tighter WAIT (consumer's first event behind the producer's
    // last) removes at least as many states again.
    const std::uint64_t tightWait =
        countOrderIdeals(jointGraph(2, 2, {{0, 3}, {1, 2}}));
    EXPECT_LT(tightWait, oneWait);

    // Fully serialized cores degenerate to one chain: m + n + 1.
    EXPECT_EQ(countOrderIdeals(jointGraph(2, 2, {{1, 2}})), 5u);

    // Every surviving ideal is still downward closed and legal.
    const PersistOrderGraph g = jointGraph(2, 2, {{0, 3}});
    std::uint64_t seen = 0;
    forEachDurableSet(g, {}, [&](const DurableSetView &view) {
        ++seen;
        EXPECT_TRUE(isLegalDurableSet(g, FaultPlan::kDrainAll,
                                      view.postSetup));
        const std::set<std::size_t> in(view.postSetup.begin(),
                                       view.postSetup.end());
        for (std::size_t i : view.postSetup) {
            for (std::size_t p : g.nodes[i].preds)
                EXPECT_TRUE(in.count(p));
        }
        return true;
    });
    EXPECT_EQ(seen, oneWait);
}

/* ------------------------------------------------------------------ */
/* Joint order of real N-core runs.                                    */
/* ------------------------------------------------------------------ */

/** One audited paced run in the slow-media regime. */
std::unique_ptr<ConcurrentHarness>
concRun(ConcApp app, Config cfg, unsigned cores, int opsPerCore,
        std::uint64_t seed)
{
    ConcParams p;
    p.cfg = cfg;
    p.cores = cores;
    p.opsPerCore = opsPerCore;
    p.seed = seed;
    p.paced = true;
    auto h = std::make_unique<ConcurrentHarness>(app, p,
                                                 /*mediaFactor=*/8);
    h->generate();
    h->simulateChecked();
    return h;
}

TEST(ConcOrder, JointGraphCarriesCrossCoreEdges)
{
    // IQ expresses the remote drain as WAIT_KEY on the producer's
    // key: the joint walk must find cross-core WAIT edges.  (The
    // rwlock gate workload is the interleaving known to put a durable
    // read behind a remote writer; msqueue at the default seed
    // happens to dequeue only local nodes.)
    auto iq = concRun(ConcApp::RwLock, Config::IQ, 2, 4, 57);
    const PersistOrderGraph jointIq = buildConcPersistOrder(*iq);
    EXPECT_GT(jointIq.nodes.size(), 0u);
    EXPECT_EQ(jointIq.preSetupCount, 0u);
    EXPECT_EQ(jointIq.stats.nonmonotone, 0u);
    EXPECT_GT(jointIq.stats.crossWait, 0u);

    // B drains remotely by re-CVAP + DSB SY: no WAITs anywhere, the
    // ordering shows up as fence edges instead.
    auto b = concRun(ConcApp::RwLock, Config::B, 2, 4, 57);
    const PersistOrderGraph jointB = buildConcPersistOrder(*b);
    EXPECT_EQ(jointB.stats.crossWait, 0u);
    EXPECT_GT(jointB.stats.fence, 0u);
}

TEST(ConcOrder, RemotePersistsOutstandingAtCrashPoints)
{
    // The slow-media regime must create crash points where a remote
    // (non-0) core's accepted persist has not reached the media --
    // the window the campaign's injection targets.
    auto h = concRun(ConcApp::MsQueue, Config::IQ, 2, 4, 42);
    const PersistOrderGraph g = buildConcPersistOrder(*h);
    const auto &events = h->system().persistEvents();
    ASSERT_EQ(g.nodes.size(), events.size());

    std::size_t remoteWindows = 0;
    for (const PersistEvent &at : events) {
        for (std::size_t i = 0; i < g.nodes.size(); ++i) {
            if (events[i].core == 0)
                continue;
            if (g.nodes[i].accept <= at.cycle &&
                (g.nodes[i].mediaCycle == kNoCycle ||
                 g.nodes[i].mediaCycle > at.cycle)) {
                ++remoteWindows;
                break;
            }
        }
    }
    EXPECT_GT(remoteWindows, 0u);
}

/** The kernel-oracle judge checkConcConfig uses. */
DurableSetChecker::StateJudge
concJudge(const ConcModel &model)
{
    return [&model](MemoryImage &img) {
        DurableSetChecker::StateVerdict v;
        v.invariant = checkConcInvariants(model, img);
        v.appOk = v.invariant == nullptr;
        return v;
    };
}

/* ------------------------------------------------------------------ */
/* Campaign cross-validation: containment and re-materialization.      */
/* ------------------------------------------------------------------ */

TEST(ConcCheck, CampaignImagesLieInsideTheJointLattice)
{
    for (Config cfg : {Config::B, Config::IQ, Config::WB}) {
        auto h = concRun(ConcApp::MsQueue, cfg, 2, 4, 42);
        const PersistOrderGraph graph = buildConcPersistOrder(*h);
        const DurableSetChecker checker(h->system().persistEvents(),
                                        h->baselineNvm(), graph,
                                        concJudge(h->model()));
        const auto &events = h->system().persistEvents();
        const auto &media = h->system().mediaWriteEvents();
        ASSERT_FALSE(events.empty());

        std::set<Cycle> crashes;
        for (const PersistEvent &ev : events) {
            crashes.insert(ev.cycle);
            crashes.insert(ev.cycle + 1);
        }
        std::vector<FaultPlan> plans;
        for (std::uint32_t drain : {FaultPlan::kDrainAll, 2u, 1u}) {
            for (TearKind tear :
                 {TearKind::None, TearKind::Prefix,
                  TearKind::Interleaved}) {
                FaultPlan plan;
                plan.seed = 0xc0c0ull + plans.size();
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
                    img, events, media, crash, plan,
                    h->mediaLineBytes(), &graph);

                // All conc events are post-setup; the sampled durable
                // set is the accept-order prefix itself.
                ASSERT_EQ(graph.preSetupCount, 0u);
                std::vector<std::size_t> postSetup;
                for (std::size_t i = 0; i < rep.durableCount; ++i)
                    postSetup.push_back(i);

                // Inside the joint lattice under the same budget...
                EXPECT_TRUE(isLegalDurableSet(graph, plan.drainLines,
                                              postSetup))
                    << configName(cfg) << " crash=" << crash;

                // ...and byte-identical when re-materialized through
                // the checker.
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

TEST(ConcCheck, IncrementalCheckMatchesReference)
{
    // The gate lattice below, every durable set and torn variant: the
    // incremental check() and the flat tornCandidates() against their
    // from-scratch references (checker_reference.hh), in the loop's
    // order and shuffled.
    for (Config cfg : {Config::B, Config::IQ, Config::WB}) {
        auto h = concRun(ConcApp::RwLock, cfg, 2, 4, 57);
        const PersistOrderGraph graph = buildConcPersistOrder(*h);
        const DurableSetChecker::StateJudge judge = concJudge(h->model());
        const auto &events = h->system().persistEvents();
        DurableSetChecker checker(events, h->baselineNvm(), graph, judge);
        const std::string label = "rwlock/" + std::string(configName(cfg));

        checker_reference::expectFlatTornCandidates(graph, checker, label);
        const auto states = checker_reference::latticeStates(graph, checker);
        checker_reference::expectIncrementalMatchesReference(
            events, h->baselineNvm(), graph, judge, states, label);
        checker_reference::expectIncrementalMatchesReference(
            events, h->baselineNvm(), graph, judge,
            checker_reference::shuffledStates(graph, states, label),
            label + " shuffled");
    }
}

/* ------------------------------------------------------------------ */
/* The sensitivity gate.                                               */
/* ------------------------------------------------------------------ */

/**
 * The gate workload: four rwlock ops per core under workload seed 57
 * place a remote-drain WAIT on the critical producer-consumer edge,
 * so deleting it is observable at 2 and 4 cores while the intact
 * program verifies clean (the CI runs exactly these parameters).
 */
ConcCheckOptions
gateOptions(unsigned cores)
{
    ConcCheckOptions opts;
    opts.app = ConcApp::RwLock;
    opts.cores = cores;
    opts.opsPerCore = 4;
    opts.workloadSeed = 57;
    return opts;
}

TEST(ConcCheck, IntactConfigsVerifyCleanTwoCores)
{
    const ConcCheckReport report = runConcCheck(gateOptions(2));
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.quarantined.empty());
    ASSERT_EQ(report.configs.size(), 3u);
    for (const ConcCheckConfigResult &r : report.configs) {
        EXPECT_EQ(r.violations, 0u) << configName(r.config);
        EXPECT_TRUE(r.counterexamples.empty());
        EXPECT_FALSE(r.truncated) << configName(r.config);
        EXPECT_EQ(r.seededBugOpIdx, kNoEvent);
        EXPECT_EQ(r.orderStats.nonmonotone, 0u);
        EXPECT_GT(r.states, 1u);
        EXPECT_GE(r.uniqueImages, 1u);
        EXPECT_EQ(r.recoveredClean, r.uniqueImages);
    }
}

TEST(ConcCheck, SeededWaitBugIsDetectedAndShrunkTwoCores)
{
    ConcCheckOptions opts = gateOptions(2);
    opts.seedBug = true;
    const ConcCheckReport report = runConcCheck(opts);

    // ok() under seedBug: planted bugs DETECTED, the fence-based
    // configuration (nothing to plant) still clean.
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.configs.size(), 3u);

    const ConcCheckConfigResult &b = report.configs[0];
    EXPECT_EQ(b.config, Config::B);
    EXPECT_EQ(b.seededBugOpIdx, kNoEvent);
    EXPECT_EQ(b.violations, 0u);

    for (std::size_t i = 1; i < 3; ++i) {
        const ConcCheckConfigResult &r = report.configs[i];
        EXPECT_NE(r.seededBugOpIdx, kNoEvent) << configName(r.config);
        EXPECT_GT(r.violations, 0u) << configName(r.config);
        ASSERT_FALSE(r.counterexamples.empty())
            << configName(r.config);
        std::size_t minimal = ~0ull;
        for (const ConcCounterexample &cex : r.counterexamples) {
            // The consumer's write durable without the producer's:
            // a torn version under the rwlock oracle.
            EXPECT_EQ(cex.invariant, "rwlock-torn-write");
            EXPECT_FALSE(cex.durable.empty());
            minimal = std::min(minimal, cex.durable.size());
        }
        // The shrinker reduces the witness to (at most) the
        // producer/consumer pair -- the ISSUE's <= 2-event gate.
        EXPECT_LE(minimal, 2u) << configName(r.config);
    }
}

TEST(ConcCheck, SeededWaitBugGateFourCores)
{
    // The same gate at 4 cores; one EDE configuration keeps the
    // lattice small enough for a unit test.
    ConcCheckOptions clean = gateOptions(4);
    clean.configs = {Config::IQ};
    const ConcCheckReport cleanReport = runConcCheck(clean);
    EXPECT_TRUE(cleanReport.ok());
    ASSERT_EQ(cleanReport.configs.size(), 1u);
    EXPECT_EQ(cleanReport.configs[0].violations, 0u);
    EXPECT_GT(cleanReport.configs[0].orderStats.crossWait, 0u);

    ConcCheckOptions seeded = clean;
    seeded.seedBug = true;
    const ConcCheckReport report = runConcCheck(seeded);
    EXPECT_TRUE(report.ok());
    ASSERT_EQ(report.configs.size(), 1u);
    const ConcCheckConfigResult &r = report.configs[0];
    EXPECT_NE(r.seededBugOpIdx, kNoEvent);
    EXPECT_GT(r.violations, 0u);
    ASSERT_FALSE(r.counterexamples.empty());
    std::size_t minimal = ~0ull;
    for (const ConcCounterexample &cex : r.counterexamples)
        minimal = std::min(minimal, cex.durable.size());
    EXPECT_LE(minimal, 2u);
}

/* ------------------------------------------------------------------ */
/* Key partition and recovery oracle.                                  */
/* ------------------------------------------------------------------ */

TEST(ConcCheck, CoreCountKeyPartitionExhausts)
{
    // 15 real keys: EDE configurations generate up to 15 cores and
    // fail 16 with the validated structured error; fence-based B
    // never consumes keys and scales past the bound.
    ConcParams p;
    p.cfg = Config::IQ;
    p.opsPerCore = 1;

    p.cores = kMaxConcEdeCores;
    EXPECT_NO_THROW(
        buildConcurrentWorkload(ConcApp::MsQueue, p));

    p.cores = kMaxConcEdeCores + 1;
    try {
        buildConcurrentWorkload(ConcApp::MsQueue, p);
        FAIL() << "16 cores under IQ must exhaust the key partition";
    } catch (const SimFaultError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::CoreCountKeyExhausted);
    }

    p.cfg = Config::B;
    EXPECT_NO_THROW(
        buildConcurrentWorkload(ConcApp::MsQueue, p));
}

TEST(ConcCheck, PacedPlanOutgrowingPaceRegionIsRejected)
{
    // Each of the cores x opsPerCore rounds burns a fresh quantum of
    // 16 + 2 x opsPerCore pace lines, and the arena's pace region
    // holds 0x80000 / 64 = 8192.  4 cores x 16 ops need (64 + 1) x 48
    // = 3120 lines; 4 x 32 need (128 + 1) x 80 = 10320 and must fail
    // generation with the typed error instead of aborting midway.
    ConcParams p;
    p.cfg = Config::IQ;
    p.cores = 4;
    p.paced = true;

    p.opsPerCore = 16;
    EXPECT_NO_THROW(buildConcurrentWorkload(ConcApp::RwLock, p));

    p.opsPerCore = 32;
    for (const ConcApp app :
         {ConcApp::MsQueue, ConcApp::RwLock, ConcApp::RcuList}) {
        try {
            buildConcurrentWorkload(app, p);
            FAIL() << "4 x 32 paced ops must exhaust the pace region";
        } catch (const SimFaultError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::PaceSlotsExhausted);
            EXPECT_NE(e.error().detail.find("10320"), std::string::npos)
                << e.error().detail;
        }
    }

    // Free-running (unpaced) plans burn no pace lines.
    p.paced = false;
    EXPECT_NO_THROW(buildConcurrentWorkload(ConcApp::RwLock, p));
}

TEST(ConcOracle, ReceiptDemandsDataAtLeastAsDurable)
{
    // Fully drained run: clean.  Then forge durable-read receipts the
    // run never vouched for: the oracle must reject both a receipt
    // beyond any published version and a receipt newer than the data
    // it guards.
    auto h = concRun(ConcApp::RwLock, Config::IQ, 2, 4, 57);
    const PersistOrderGraph graph = buildConcPersistOrder(*h);
    const ConcModel &model = h->model();
    const DurableSetChecker checker(h->system().persistEvents(),
                                    h->baselineNvm(), graph,
                                    concJudge(model));

    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < graph.nodes.size(); ++i)
        all.push_back(i);
    const MemoryImage full = checker.materialize(all);
    EXPECT_EQ(checkConcInvariants(model, full), nullptr);
    ASSERT_GT(model.maxVersion, 0u);

    MemoryImage phantom = full;
    phantom.write<std::uint64_t>(concRwReceipt(1),
                                 model.maxVersion + 1);
    EXPECT_STREQ(checkConcInvariants(model, phantom),
                 "rwlock-torn-write");

    MemoryImage stale = full;
    stale.write<std::uint64_t>(concRwReceipt(1), model.maxVersion);
    stale.write<std::uint64_t>(kConcRwData, model.maxVersion - 1);
    EXPECT_STREQ(checkConcInvariants(model, stale),
                 "rwlock-torn-write");
}

/* ------------------------------------------------------------------ */
/* Campaign, wire formats and isolation plumbing.                      */
/* ------------------------------------------------------------------ */

void
expectConcResultEq(const ConcCheckConfigResult &a,
                   const ConcCheckConfigResult &b)
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
    EXPECT_EQ(a.orderStats.crossWait, b.orderStats.crossWait);
    EXPECT_EQ(a.orderStats.crossLine, b.orderStats.crossLine);
    EXPECT_EQ(a.orderStats.nonmonotone, b.orderStats.nonmonotone);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.rejectedBudget, b.rejectedBudget);
    EXPECT_EQ(a.tornVariants, b.tornVariants);
    EXPECT_EQ(a.uniqueImages, b.uniqueImages);
    EXPECT_EQ(a.recoveredClean, b.recoveredClean);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.seededBugOpIdx, b.seededBugOpIdx);
    EXPECT_EQ(a.seededBugCore, b.seededBugCore);
    ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
    for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
        EXPECT_EQ(a.counterexamples[i].invariant,
                  b.counterexamples[i].invariant);
        EXPECT_EQ(a.counterexamples[i].durable,
                  b.counterexamples[i].durable);
        EXPECT_EQ(a.counterexamples[i].tornIdx,
                  b.counterexamples[i].tornIdx);
        EXPECT_EQ(a.counterexamples[i].tornMask,
                  b.counterexamples[i].tornMask);
        EXPECT_EQ(a.counterexamples[i].imageHash,
                  b.counterexamples[i].imageHash);
    }
}

TEST(ConcCheck, WireFormatRoundTrips)
{
    // A result with counterexamples (the hardest payload) from a real
    // seeded-bug run.
    ConcCheckOptions opts = gateOptions(2);
    opts.seedBug = true;
    opts.configs = {Config::IQ};
    const ConcCheckReport report = runConcCheck(opts);
    ASSERT_EQ(report.configs.size(), 1u);
    ASSERT_FALSE(report.configs[0].counterexamples.empty());

    const std::string wire =
        serializeConcCheckResult(report.configs[0]);
    const auto back = deserializeConcCheckResult(wire);
    ASSERT_TRUE(back.has_value());
    expectConcResultEq(report.configs[0], *back);

    EXPECT_FALSE(deserializeConcCheckResult("").has_value());
    EXPECT_FALSE(deserializeConcCheckResult("junk\n").has_value());
}

TEST(ConcCheck, SweepIdCoversTheSearchParameters)
{
    const ConcCheckOptions base = gateOptions(2);
    const std::uint64_t id = concCheckSweepId(base);

    ConcCheckOptions mut = base;
    mut.cores = 4;
    EXPECT_NE(concCheckSweepId(mut), id);
    mut = base;
    mut.opsPerCore = 6;
    EXPECT_NE(concCheckSweepId(mut), id);
    mut = base;
    mut.workloadSeed = 58;
    EXPECT_NE(concCheckSweepId(mut), id);
    mut = base;
    mut.mediaFactor = 4;
    EXPECT_NE(concCheckSweepId(mut), id);
    mut = base;
    mut.seedBug = true;
    EXPECT_NE(concCheckSweepId(mut), id);
    mut = base;
    mut.app = ConcApp::MsQueue;
    EXPECT_NE(concCheckSweepId(mut), id);

    // Isolation knobs do not change the experiment's identity.
    mut = base;
    mut.isolate = true;
    mut.jobs = 4;
    EXPECT_EQ(concCheckSweepId(mut), id);
}

TEST(ConcCheck, ChaosCrashQuarantinesTheConfig)
{
    ConcCheckOptions opts = gateOptions(2);
    opts.configs = {Config::B, Config::IQ};
    opts.isolate = true;
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseMs = 1;
    opts.retry.backoffMaxMs = 2;
    opts.chaosCrashConfig = "IQ";
    const ConcCheckReport report = runConcCheck(opts);

    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].config, Config::IQ);
    ASSERT_EQ(report.configs.size(), 1u);
    EXPECT_EQ(report.configs[0].config, Config::B);
    EXPECT_EQ(report.configs[0].violations, 0u);
}

TEST(ConcCampaign, TargetsRemoteWindowsAndRoundTrips)
{
    ConcCampaignOptions opts;
    opts.app = ConcApp::MsQueue;
    opts.cores = 2;
    opts.opsPerCore = 4;
    opts.workloadSeed = 42;
    opts.pointsPerConfig = 24;
    opts.acceptFaultRate = 0.0;
    opts.configs = {Config::B, Config::IQ, Config::U};
    const ConcCampaignReport report = runConcCampaign(opts);

    // U is declared-unsafe: whatever it exposes never fails ok().
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.quarantined.empty());
    ASSERT_EQ(report.configs.size(), 3u);

    std::size_t remote = 0;
    for (const ConcCampaignConfigResult &c : report.configs) {
        EXPECT_GT(c.points, 0u) << configName(c.config);
        remote += c.remotePoints;
        if (!configIsUnsafe(c.config)) {
            EXPECT_EQ(c.unrecoverable, 0u) << configName(c.config);
            EXPECT_EQ(c.recovered, c.points) << configName(c.config);
        }
        // Wire format: field-exact round trip.
        const auto back = deserializeConcCampaignResult(
            serializeConcCampaignResult(c));
        ASSERT_TRUE(back.has_value()) << configName(c.config);
        EXPECT_EQ(back->config, c.config);
        EXPECT_EQ(back->cycles, c.cycles);
        EXPECT_EQ(back->points, c.points);
        EXPECT_EQ(back->remotePoints, c.remotePoints);
        EXPECT_EQ(back->recovered, c.recovered);
        EXPECT_EQ(back->unrecoverable, c.unrecoverable);
        ASSERT_EQ(back->results.size(), c.results.size());
        for (std::size_t i = 0; i < c.results.size(); ++i) {
            EXPECT_EQ(back->results[i].crashCycle,
                      c.results[i].crashCycle);
            EXPECT_EQ(back->results[i].outcome, c.results[i].outcome);
            EXPECT_EQ(back->results[i].remoteOutstanding,
                      c.results[i].remoteOutstanding);
            EXPECT_EQ(back->results[i].invariant,
                      c.results[i].invariant);
            EXPECT_EQ(back->results[i].plan.seed,
                      c.results[i].plan.seed);
        }
        ASSERT_EQ(back->failures.size(), c.failures.size());
    }
    // The stratified sampler must actually land in the
    // crash-during-remote-persist window.
    EXPECT_GT(remote, 0u);

    EXPECT_FALSE(deserializeConcCampaignResult("junk\n").has_value());
}

} // namespace
} // namespace ede
