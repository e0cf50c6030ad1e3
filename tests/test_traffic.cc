/**
 * @file
 * Tests for the open-loop traffic harness (src/traffic) and the
 * RunRequest face of the Session API.
 *
 * The load-bearing guarantees:
 *
 *  - exactPermille is the *exact* nearest-rank order statistic --
 *    checked against a sort-the-whole-vector reference on the
 *    adversarial populations (n = 1, all-ties, n < 100, where a
 *    histogram or an off-by-one rank would silently lie);
 *  - generators are deterministic in their seeds, and the workload
 *    is arrival-independent: changing only the offered load leaves
 *    the closed-loop machine run bit-identical while the open-loop
 *    tail moves (the overload knee the harness exists to expose);
 *  - latency records are bit-identical across ticking modes and
 *    across --jobs counts, so CI can cmp artifacts byte for byte;
 *  - malformed requests come back as structured SimErrors
 *    (RunRequestInvalid / CoreCountKeyExhausted), and request
 *    validation does not consume the single-shot session;
 *  - traffic cells survive the result-cache snapshot round trip and
 *    every traffic knob is fingerprint-relevant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hh"
#include "exp/fingerprint.hh"
#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "sim/session.hh"
#include "traffic/arrival.hh"
#include "traffic/latency.hh"
#include "traffic/opmix.hh"
#include "traffic/stream_mux.hh"

namespace ede {
namespace {

using traffic::ArrivalKind;
using traffic::ArrivalProcess;
using traffic::ArrivalSpec;
using traffic::LatencySummary;
using traffic::TrafficPlan;
using traffic::TrafficResult;
using traffic::ZipfGenerator;

// ---------------------------------------------------------------- //
// Exact percentiles
// ---------------------------------------------------------------- //

/** Sort-everything reference for the nearest-rank order statistic. */
Cycle
referencePermille(std::vector<Cycle> samples, unsigned permille)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    const std::size_t rank = static_cast<std::size_t>(std::ceil(
        static_cast<double>(n) * static_cast<double>(permille) /
        1000.0));
    return samples[rank - 1];
}

void
expectMatchesReference(const std::vector<Cycle> &samples)
{
    for (unsigned permille : {1u, 500u, 990u, 999u, 1000u}) {
        std::vector<Cycle> scratch = samples;
        EXPECT_EQ(traffic::exactPermille(scratch, permille),
                  referencePermille(samples, permille))
            << "n=" << samples.size() << " permille=" << permille;
    }
}

TEST(ExactPermille, SingleSampleIsEveryPercentile)
{
    expectMatchesReference({7});
}

TEST(ExactPermille, AllTiesCollapseToTheTie)
{
    expectMatchesReference(std::vector<Cycle>(250, 42));
}

TEST(ExactPermille, SmallPopulationsHitNearestRank)
{
    // Below 100 samples p99 and p99.9 both resolve to the max --
    // the nearest rank, not an interpolation.
    for (std::size_t n : {2u, 3u, 10u, 99u}) {
        std::vector<Cycle> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(static_cast<Cycle>(1000 - i * 7));
        expectMatchesReference(v);
        std::vector<Cycle> scratch = v;
        EXPECT_EQ(traffic::exactPermille(scratch, 999),
                  *std::max_element(v.begin(), v.end()));
    }
}

TEST(ExactPermille, RandomPopulationsMatchReference)
{
    Rng rng(2026);
    for (std::size_t n : {100u, 101u, 999u, 1000u, 1001u, 4096u}) {
        std::vector<Cycle> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(rng.below(500));  // Plenty of ties.
        expectMatchesReference(v);
    }
}

TEST(Summarize, DigestIsOrderInvariant)
{
    std::vector<Cycle> asc{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<Cycle> desc(asc.rbegin(), asc.rend());
    const LatencySummary a = traffic::summarize(asc);
    const LatencySummary b = traffic::summarize(desc);
    EXPECT_EQ(a.count, 10u);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
    EXPECT_EQ(a.max, 10u);
    EXPECT_EQ(a.sum, 55u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.5);
}

// ---------------------------------------------------------------- //
// Generators
// ---------------------------------------------------------------- //

TEST(ArrivalProcessTest, SameSeedSameSequence)
{
    ArrivalSpec spec;
    spec.meanGap = 500.0;
    ArrivalProcess a(spec, 7);
    ArrivalProcess b(spec, 7);
    ArrivalProcess c(spec, 8);
    bool anyDiffer = false;
    Cycle prev = 0;
    for (int i = 0; i < 256; ++i) {
        const Cycle t = a.next();
        EXPECT_EQ(t, b.next());
        anyDiffer |= t != c.next();
        EXPECT_GE(t, prev);  // Arrival clock is monotone.
        prev = t;
    }
    EXPECT_TRUE(anyDiffer);
}

TEST(ArrivalProcessTest, BurstyRunsHotterThanItsCalmMean)
{
    ArrivalSpec calm;
    calm.meanGap = 1000.0;
    ArrivalSpec bursty = calm;
    bursty.kind = ArrivalKind::Bursty;
    bursty.burstFactor = 8.0;
    bursty.pSwitch = 0.5;
    ArrivalProcess a(calm, 11);
    ArrivalProcess b(bursty, 11);
    Cycle lastCalm = 0;
    Cycle lastBursty = 0;
    for (int i = 0; i < 4096; ++i) {
        lastCalm = a.next();
        lastBursty = b.next();
    }
    // Spending half its time at 8x the rate, the MMPP must finish
    // its 4096 arrivals well before the pure-Poisson clock.
    EXPECT_LT(lastBursty, lastCalm);
}

TEST(ZipfGeneratorTest, DeterministicInBoundsAndSkewed)
{
    ZipfGenerator z1(256, 0.99);
    ZipfGenerator z2(256, 0.99);
    Rng r1(5), r2(5);
    std::uint64_t hot = 0;
    for (int i = 0; i < 8192; ++i) {
        const std::uint64_t k = z1.next(r1);
        EXPECT_EQ(k, z2.next(r2));
        ASSERT_LT(k, 256u);
        if (k == 0)
            ++hot;
    }
    // Rank 0 absorbs far more than the uniform 1/256 share.
    EXPECT_GT(hot, 8192u / 32);
}

TEST(ZipfGeneratorTest, ThetaZeroIsRoughlyUniform)
{
    ZipfGenerator z(16, 0.0);
    Rng rng(9);
    std::vector<unsigned> counts(16, 0);
    for (int i = 0; i < 16000; ++i)
        ++counts[z.next(rng)];
    for (unsigned c : counts) {
        EXPECT_GT(c, 600u);
        EXPECT_LT(c, 1400u);
    }
}

// ---------------------------------------------------------------- //
// Plan validation
// ---------------------------------------------------------------- //

TEST(ValidateTrafficPlan, RejectsEachMalformedKnob)
{
    const auto expectInvalid = [](TrafficPlan p, unsigned cores = 2) {
        const traffic::TrafficCheck check =
            traffic::validateTrafficPlan(p, Config::WB, cores);
        EXPECT_EQ(check.kind, SimErrorKind::RunRequestInvalid)
            << check.message;
    };
    TrafficPlan ok;
    EXPECT_TRUE(
        traffic::validateTrafficPlan(ok, Config::WB, 2).ok());

    TrafficPlan p = ok;
    p.streams = 0;
    expectInvalid(p);
    p = ok;
    p.txnsPerStream = 0;
    expectInvalid(p);
    p = ok;
    p.opsPerTxn = 0;
    expectInvalid(p);
    p = ok;
    p.mix.keys = 0;
    expectInvalid(p);
    p = ok;
    p.mix.keys = traffic::kTrafficMaxKeys + 1;
    expectInvalid(p);
    p = ok;
    p.mix.readFraction = 1.5;
    expectInvalid(p);
    p = ok;
    p.mix.zipfTheta = 1.0;  // Divergent harmonic case.
    expectInvalid(p);
    p = ok;
    p.arrival.meanGap = 0.0;
    expectInvalid(p);
    p = ok;
    p.arrival.burstFactor = 0.5;
    expectInvalid(p);
    p = ok;
    p.arrival.pSwitch = -0.1;
    expectInvalid(p);
    expectInvalid(ok, 0);
}

TEST(ValidateTrafficPlan, RejectsOverloadAndSplitKnobMisuse)
{
    const auto expectInvalid = [](TrafficPlan p) {
        const traffic::TrafficCheck check =
            traffic::validateTrafficPlan(p, Config::WB, 2);
        EXPECT_EQ(check.kind, SimErrorKind::RunRequestInvalid)
            << check.message;
        return check;
    };
    TrafficPlan ok;

    // A plan with fewer transactions than streams would leave some
    // stream empty; the detail names the contract.
    TrafficPlan p = ok;
    p.streams = 4;
    p.totalTxns = 3;
    const traffic::TrafficCheck starved = expectInvalid(p);
    EXPECT_NE(std::string(starved.message)
                  .find("more streams than transactions"),
              std::string::npos);
    p.totalTxns = 4;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());

    p = ok;
    p.totalTxns = -1;
    expectInvalid(p);
    p = ok;
    p.warmupPermille = 1000;  // Everything warmup = no steady state.
    expectInvalid(p);
    p = ok;
    p.latencyWindows = 0;
    expectInvalid(p);
    p = ok;
    p.latencyWindows = 65;
    expectInvalid(p);

    // Closed-pool arrivals.
    p = ok;
    p.arrival.kind = ArrivalKind::ClosedPool;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
    p.arrival.poolSize = 0;
    expectInvalid(p);
    p.arrival.poolSize = 2;
    p.arrival.thinkTime = -1.0;
    expectInvalid(p);

    // Retry/degrade knobs require an admission policy to act under.
    p = ok;
    p.policy.retryBudget = 4;
    expectInvalid(p);
    p = ok;
    p.policy.degrade = true;
    expectInvalid(p);

    // Each policy's own parameters.
    p = ok;
    p.policy.admission = traffic::AdmissionKind::Deadline;
    p.policy.deadline = 0;
    expectInvalid(p);
    p.policy.deadline = 1000;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
    p.policy.queueDepth = 0;
    expectInvalid(p);
    p = ok;
    p.policy.admission = traffic::AdmissionKind::TokenBucket;
    p.policy.tokenRatePerKCycle = 0;
    p.policy.tokenBurst = 4;
    expectInvalid(p);
    p.policy.tokenRatePerKCycle = 8;
    p.policy.tokenBurst = 0;
    expectInvalid(p);
    p.policy.tokenBurst = 4;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
    p.policy.retryBudget = 2;
    p.policy.retryBackoffBase = 0;
    expectInvalid(p);
    p.policy.retryBackoffBase = 512;
    p.policy.retryBackoffCap = 256;  // Cap below base.
    expectInvalid(p);

    // Hysteresis needs recover < degrade.
    p = ok;
    p.policy.admission = traffic::AdmissionKind::DropTail;
    p.policy.degrade = true;
    p.policy.shedWindow = 0;
    expectInvalid(p);
    p.policy.shedWindow = 16;
    p.policy.degradePermille = 0;
    expectInvalid(p);
    p.policy.degradePermille = 500;
    p.policy.recoverPermille = 500;
    expectInvalid(p);
    p.policy.recoverPermille = 100;
    EXPECT_TRUE(traffic::validateTrafficPlan(p, Config::WB, 2).ok());
}

TEST(ValidateTrafficPlan, TotalTxnsSplitsRoundRobin)
{
    TrafficPlan p;
    p.streams = 3;
    p.totalTxns = 8;
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 0), 3u);
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 1), 3u);
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 2), 2u);
    p.totalTxns = 0;  // Fall back to the per-stream count.
    EXPECT_EQ(traffic::trafficTxnsOfStream(p, 2),
              static_cast<std::uint64_t>(p.txnsPerStream));
}

TEST(ValidateTrafficPlan, EdeConfigsAreKeyLimited)
{
    TrafficPlan plan;
    const traffic::TrafficCheck ede = traffic::validateTrafficPlan(
        plan, Config::WB, traffic::kMaxTrafficEdeCores + 1);
    EXPECT_EQ(ede.kind, SimErrorKind::CoreCountKeyExhausted);
    // Fence-based configs spend no keys, so any core count is fine.
    EXPECT_TRUE(traffic::validateTrafficPlan(
                    plan, Config::B,
                    traffic::kMaxTrafficEdeCores + 1)
                    .ok());
    EXPECT_TRUE(traffic::validateTrafficPlan(
                    plan, Config::WB, traffic::kMaxTrafficEdeCores)
                    .ok());
}

// ---------------------------------------------------------------- //
// Session / RunRequest
// ---------------------------------------------------------------- //

TrafficPlan
tinyPlan(double meanGap = 2000.0)
{
    TrafficPlan plan;
    plan.streams = 2;
    plan.txnsPerStream = 12;
    plan.opsPerTxn = 2;
    plan.mix.keys = 32;
    plan.arrival.meanGap = meanGap;
    return plan;
}

TEST(SessionRequest, EmptyRequestIsInvalidAndDoesNotConsume)
{
    Session s(SimConfig::paper(Config::WB));
    const SimResult bad = s.run(RunRequest{});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_FALSE(s.ran());

    // The rejection left the session fresh: a valid request runs.
    const SimResult good = s.run(RunRequest::ofTraffic(tinyPlan()));
    EXPECT_TRUE(good.ok());
    EXPECT_TRUE(s.ran());
}

TEST(SessionRequest, TraceCountMustMatchCoreCount)
{
    Session s(SimConfig::paper(Config::B).withCoreCount(2));
    Trace t;
    TraceBuilder(t).movImm(1, 7);
    const SimResult r = s.run(RunRequest::of(t));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_NE(r.error.detail.find("1 trace"), std::string::npos);
}

TEST(SessionRequest, MalformedTrafficPlanReportsTheKnob)
{
    Session s(SimConfig::paper(Config::WB));
    TrafficPlan plan = tinyPlan();
    plan.mix.zipfTheta = 1.0;
    const SimResult r = s.run(RunRequest::ofTraffic(plan));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::RunRequestInvalid);
    EXPECT_NE(r.error.detail.find("zipf theta"), std::string::npos);
}

TEST(SessionRequest, TrafficRunPopulatesLatencyRecords)
{
    const TrafficPlan plan = tinyPlan();
    Session s(SimConfig::paper(Config::WB).withCoreCount(2));
    const SimResult r = s.run(RunRequest::ofTraffic(plan));
    ASSERT_TRUE(r.ok());

    const TrafficResult &t = r.stats.traffic;
    EXPECT_TRUE(t.enabled);
    const std::uint64_t txns =
        static_cast<std::uint64_t>(plan.streams) *
        static_cast<std::uint64_t>(plan.txnsPerStream);
    EXPECT_EQ(t.open.count, txns);
    EXPECT_EQ(t.service.count, txns);
    ASSERT_EQ(t.streams.size(), plan.streams);
    for (unsigned i = 0; i < plan.streams; ++i) {
        EXPECT_EQ(t.streams[i].stream, i);
        EXPECT_EQ(t.streams[i].core, i % 2);
        EXPECT_EQ(t.streams[i].open.count,
                  static_cast<std::uint64_t>(plan.txnsPerStream));
    }
    // Order statistics are ordered; open >= service pointwise, so
    // the open mean dominates the service mean.
    EXPECT_LE(t.open.p50, t.open.p99);
    EXPECT_LE(t.open.p99, t.open.p999);
    EXPECT_LE(t.open.p999, t.open.max);
    EXPECT_GE(t.open.mean(), t.service.mean());

    // A plain trace run must NOT carry traffic records.
    Session plain(SimConfig::paper(Config::WB));
    Trace trace;
    TraceBuilder(trace).movImm(1, 7);
    const SimResult pr = plain.run(RunRequest::of(trace));
    ASSERT_TRUE(pr.ok());
    EXPECT_FALSE(pr.stats.traffic.enabled);
}

/** The knee invariant, at Session level. */
TEST(SessionRequest, OfferedLoadMovesOpenTailButNotTheMachine)
{
    const auto runAt = [](double gap) {
        Session s(SimConfig::paper(Config::WB).withCoreCount(2));
        const SimResult r =
            s.run(RunRequest::ofTraffic(tinyPlan(gap)));
        EXPECT_TRUE(r.ok());
        return r;
    };
    const SimResult light = runAt(60000.0);
    const SimResult heavy = runAt(60.0);

    // The trace, and so the whole machine run, is arrival-blind...
    EXPECT_EQ(light.stats.cycles, heavy.stats.cycles);
    EXPECT_EQ(light.stats.core.retired, heavy.stats.core.retired);
    EXPECT_EQ(light.stats.traffic.service.p50,
              heavy.stats.traffic.service.p50);
    EXPECT_EQ(light.stats.traffic.service.max,
              heavy.stats.traffic.service.max);
    // ...while the open-loop tail sees the queueing delay.
    EXPECT_GT(heavy.stats.traffic.open.p99,
              light.stats.traffic.open.p99);
}

void
expectSameSummary(const LatencySummary &a, const LatencySummary &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.sum, b.sum);
}

TEST(SessionRequest, LatencyRecordsAreTickerInvariant)
{
    const auto runWith = [](TickingMode mode) {
        SimConfig cfg = SimConfig::paper(Config::WB);
        CoreParams core = cfg.params().core;
        core.ticking = mode;
        Session s(cfg.withCore(core).withCoreCount(2));
        const SimResult r =
            s.run(RunRequest::ofTraffic(tinyPlan(500.0)));
        EXPECT_TRUE(r.ok());
        return r.stats.traffic;
    };
    const TrafficResult skip = runWith(TickingMode::SkipAhead);
    const TrafficResult ref = runWith(TickingMode::Reference);
    expectSameSummary(skip.open, ref.open);
    expectSameSummary(skip.service, ref.service);
    ASSERT_EQ(skip.streams.size(), ref.streams.size());
    for (std::size_t i = 0; i < skip.streams.size(); ++i) {
        expectSameSummary(skip.streams[i].open, ref.streams[i].open);
        expectSameSummary(skip.streams[i].service,
                          ref.streams[i].service);
    }
}

// ---------------------------------------------------------------- //
// Experiment layer
// ---------------------------------------------------------------- //

exp::ExperimentPoint
trafficPoint(double gap, const std::string &label)
{
    exp::ExperimentPoint pt;
    pt.label = label;
    pt.config = Config::WB;
    pt.simParams =
        SimConfig::paper(Config::WB).withCoreCount(2).params();
    pt.traffic = true;
    pt.trafficPlan = tinyPlan(gap);
    return pt;
}

TEST(TrafficExp, QuarantinedCellIsNamedTraffic)
{
    exp::ExperimentCell cell;
    cell.point = trafficPoint(60.0, "WB/g60");
    cell.failed = true;
    cell.failure.outcome = exp::JobOutcome::Crashed;
    cell.failure.signal = 9;
    const std::string json =
        exp::resultsToJson("t", exp::ExperimentResults({cell}));
    EXPECT_NE(json.find("\"app\": \"traffic\""), std::string::npos)
        << json;
}

TEST(TrafficExp, ParallelCellsAreBitIdenticalToSerial)
{
    exp::ExperimentPlan plan;
    plan.add(trafficPoint(6000.0, "WB/g6000"));
    plan.add(trafficPoint(60.0, "WB/g60"));

    exp::RunnerOptions serial;
    serial.jobs = 1;
    serial.printSummary = false;
    exp::RunnerOptions parallel = serial;
    parallel.jobs = 8;

    const exp::ExperimentResults a = exp::runPlan(plan, serial);
    const exp::ExperimentResults b = exp::runPlan(plan, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // serializeCell covers the whole persisted snapshot,
        // latency records included.
        EXPECT_EQ(exp::serializeCell(a.cells()[i]),
                  exp::serializeCell(b.cells()[i]));
    }
    EXPECT_TRUE(a.cells()[0].result.traffic.enabled);
}

TEST(TrafficExp, SnapshotRoundTripsTrafficSection)
{
    exp::ExperimentPlan plan;
    plan.add(trafficPoint(500.0, "WB/g500"));
    exp::RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const exp::ExperimentResults results = exp::runPlan(plan, opt);
    const exp::ExperimentCell &cell = results.cells().front();
    ASSERT_TRUE(cell.result.traffic.enabled);

    const auto back = exp::deserializeCell(
        exp::serializeCell(cell), cell.point, cell.fingerprint);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(exp::serializeCell(*back), exp::serializeCell(cell));
    EXPECT_TRUE(back->result.traffic.enabled);
    expectSameSummary(back->result.traffic.open,
                      cell.result.traffic.open);
    ASSERT_EQ(back->result.traffic.streams.size(),
              cell.result.traffic.streams.size());
}

TEST(TrafficExp, EveryTrafficKnobIsFingerprintRelevant)
{
    const exp::ExperimentPoint base = trafficPoint(500.0, "base");
    const std::uint64_t fp = exp::fingerprintPoint(base);

    exp::ExperimentPoint p = base;
    p.traffic = false;
    EXPECT_NE(exp::fingerprintPoint(p), fp);

    p = base;
    p.trafficPlan.arrival.meanGap = 501.0;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.arrival.kind = ArrivalKind::Bursty;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.streams += 1;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.txnsPerStream += 1;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.opsPerTxn += 1;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.mix.zipfTheta = 0.5;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.mix.readFraction = 0.25;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.mix.keys = 64;
    EXPECT_NE(exp::fingerprintPoint(p), fp);
    p = base;
    p.trafficPlan.seed = 43;
    EXPECT_NE(exp::fingerprintPoint(p), fp);

    // And an identical copy collides, or the cache never hits.
    EXPECT_EQ(exp::fingerprintPoint(trafficPoint(500.0, "base")), fp);
}

TEST(TrafficExp, EveryOverloadKnobIsFingerprintRelevant)
{
    const exp::ExperimentPoint base = trafficPoint(500.0, "base");
    const std::uint64_t fp = exp::fingerprintPoint(base);
    const auto differs = [&](auto mutate) {
        exp::ExperimentPoint p = base;
        mutate(p.trafficPlan);
        EXPECT_NE(exp::fingerprintPoint(p), fp);
    };
    differs([](TrafficPlan &t) { t.totalTxns = 24; });
    differs([](TrafficPlan &t) { t.warmupPermille = 250; });
    differs([](TrafficPlan &t) { t.latencyWindows = 16; });
    differs([](TrafficPlan &t) {
        t.arrival.kind = ArrivalKind::ClosedPool;
    });
    differs([](TrafficPlan &t) { t.arrival.poolSize = 8; });
    differs([](TrafficPlan &t) { t.arrival.thinkTime = 1234.0; });
    differs([](TrafficPlan &t) {
        t.policy.admission = traffic::AdmissionKind::DropTail;
    });
    differs([](TrafficPlan &t) { t.policy.queueDepth = 17; });
    differs([](TrafficPlan &t) { t.policy.deadline = 9000; });
    differs([](TrafficPlan &t) { t.policy.tokenRatePerKCycle = 3; });
    differs([](TrafficPlan &t) { t.policy.tokenBurst = 3; });
    differs([](TrafficPlan &t) { t.policy.retryBudget = 3; });
    differs([](TrafficPlan &t) { t.policy.retryBackoffBase = 128; });
    differs([](TrafficPlan &t) { t.policy.retryBackoffCap = 4096; });
    differs([](TrafficPlan &t) { t.policy.degrade = true; });
    differs([](TrafficPlan &t) { t.policy.shedWindow = 64; });
    differs([](TrafficPlan &t) { t.policy.degradePermille = 700; });
    differs([](TrafficPlan &t) { t.policy.recoverPermille = 50; });
}

} // namespace
} // namespace ede
