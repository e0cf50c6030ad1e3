/**
 * @file
 * Tests for the experiment-orchestration layer (src/exp): scheduler
 * ordering and failure propagation, fingerprint sensitivity, result
 * cache hit/miss/corruption behaviour, keyed cell lookup, and the
 * determinism guarantee that parallel runs are bit-identical to
 * serial ones for every app x config cell (sweeps and the fault
 * campaign alike).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "exp/fingerprint.hh"
#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "exp/scheduler.hh"
#include "fault/campaign.hh"
#include "fault/conc_campaign.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"

namespace ede {
namespace {

using exp::ExperimentCell;
using exp::ExperimentPlan;
using exp::ExperimentPoint;
using exp::ExperimentResults;
using exp::ResultCache;
using exp::RunnerOptions;
using exp::Scheduler;

RunSpec
tiny()
{
    RunSpec spec;
    spec.txns = 2;
    spec.opsPerTxn = 4;
    return spec;
}

/** A scratch directory under the build tree, wiped per use. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "exp_test_scratch/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

// ---------------------------------------------------------------- //
// Scheduler
// ---------------------------------------------------------------- //

TEST(Scheduler, MapCollectsResultsInIndexOrder)
{
    const Scheduler sched(4);
    const std::vector<std::uint64_t> out =
        sched.map<std::uint64_t>(64, [](std::size_t i) {
            if (i % 7 == 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
            return static_cast<std::uint64_t>(i * i);
        });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(Scheduler, SingleJobRunsInlineOnCallingThread)
{
    const Scheduler sched(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(8);
    sched.parallelFor(8, [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const std::thread::id &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(Scheduler, ZeroJobsResolvesToHardwareConcurrency)
{
    EXPECT_EQ(Scheduler(0).jobs(), Scheduler::hardwareJobs());
    EXPECT_GE(Scheduler::hardwareJobs(), 1u);
}

TEST(Scheduler, PropagatesJobFailure)
{
    for (unsigned jobs : {1u, 4u}) {
        const Scheduler sched(jobs);
        EXPECT_THROW(
            sched.parallelFor(16,
                              [](std::size_t i) {
                                  if (i == 5) {
                                      throw std::runtime_error(
                                          "job 5 failed");
                                  }
                              }),
            std::runtime_error);
    }
}

TEST(Scheduler, SerialFailureIsFirstInIndexOrder)
{
    const Scheduler sched(1);
    try {
        sched.parallelFor(16, [](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("first");
            if (i == 7)
                throw std::runtime_error("second");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(Scheduler, StopsStartingNewJobsAfterFailure)
{
    const Scheduler sched(2);
    std::atomic<int> started{0};
    EXPECT_THROW(sched.parallelFor(1000,
                                   [&](std::size_t) {
                                       started.fetch_add(1);
                                       throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
    // Both workers can have one job in flight, but the remaining
    // ~998 must never start.
    EXPECT_LE(started.load(), 4);
}

// ---------------------------------------------------------------- //
// Fingerprints
// ---------------------------------------------------------------- //

ExperimentPoint
basePoint()
{
    ExperimentPoint p;
    p.app = AppId::Update;
    p.config = Config::WB;
    p.spec = tiny();
    p.simParams = makeParams(Config::WB);
    return p;
}

TEST(Fingerprint, StableForIdenticalPoints)
{
    EXPECT_EQ(exp::fingerprintPoint(basePoint()),
              exp::fingerprintPoint(basePoint()));
}

TEST(Fingerprint, ChangesWithEveryInputAxis)
{
    const std::uint64_t base = exp::fingerprintPoint(basePoint());

    ExperimentPoint p = basePoint();
    p.app = AppId::Swap;
    EXPECT_NE(exp::fingerprintPoint(p), base);

    p = basePoint();
    p.config = Config::B;
    p.simParams = makeParams(Config::B);
    EXPECT_NE(exp::fingerprintPoint(p), base);

    p = basePoint();
    p.spec.seed = 43;
    EXPECT_NE(exp::fingerprintPoint(p), base);

    p = basePoint();
    p.spec.opsPerTxn += 1;
    EXPECT_NE(exp::fingerprintPoint(p), base);

    p = basePoint();
    p.appParams.arrayLen = 8192;
    EXPECT_NE(exp::fingerprintPoint(p), base);

    p = basePoint();
    p.simParams.core.wbSize = 32;
    EXPECT_NE(exp::fingerprintPoint(p), base);

    p = basePoint();
    p.simParams.mem.nvm.writeLatency = 900;
    EXPECT_NE(exp::fingerprintPoint(p), base);

    // The label is presentation only: it must NOT affect the
    // fingerprint, or axis defaults would never dedupe.
    p = basePoint();
    p.label = "some-other-label";
    EXPECT_EQ(exp::fingerprintPoint(p), base);
}

TEST(Fingerprint, ConcAxesAreDistinctAndGatedOnConc)
{
    // The conc fields are hashed only when the point is a
    // concurrent-kernel cell, so every pre-existing single-app
    // fingerprint (and its cached snapshot) stays valid.
    const std::uint64_t base = exp::fingerprintPoint(basePoint());

    ExperimentPoint p = basePoint();
    p.concApp = ConcApp::RwLock;
    p.concOpsPerCore = 999;
    p.concSeed = 77;
    EXPECT_EQ(exp::fingerprintPoint(p), base)
        << "conc fields leaked into a non-conc fingerprint";

    p = basePoint();
    p.conc = true;
    const std::uint64_t conc = exp::fingerprintPoint(p);
    EXPECT_NE(conc, base);

    ExperimentPoint q = p;
    q.concApp = ConcApp::RwLock;
    EXPECT_NE(exp::fingerprintPoint(q), conc);

    q = p;
    q.concOpsPerCore += 1;
    EXPECT_NE(exp::fingerprintPoint(q), conc);

    q = p;
    q.concSeed += 1;
    EXPECT_NE(exp::fingerprintPoint(q), conc);

    q = p;
    q.simParams.coreCount = 4;
    EXPECT_NE(exp::fingerprintPoint(q), conc);
}

// ---------------------------------------------------------------- //
// Result cache
// ---------------------------------------------------------------- //

/** Simulate one real cell so snapshots carry non-trivial stats. */
ExperimentCell
simulatedCell()
{
    ExperimentPlan plan;
    plan.addCell(AppId::Update, Config::WB, tiny());
    RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const ExperimentResults results = exp::runPlan(plan, opt);
    return results.cells().front();
}

TEST(ResultCacheTest, RoundTripsACell)
{
    const ExperimentCell cell = simulatedCell();
    const ResultCache cache(scratchDir("roundtrip"));
    cache.store(cell);

    const auto hit = cache.load(cell.point, cell.fingerprint);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromCache);
    EXPECT_EQ(hit->opCycles, cell.opCycles);
    // serializeCell covers every persisted statistic, so equality of
    // the serialization is equality of the snapshot.
    EXPECT_EQ(exp::serializeCell(*hit), exp::serializeCell(cell));
    EXPECT_GT(hit->result.core.issueHist.totalSamples(), 0u);
    EXPECT_EQ(hit->result.nvmOccupancy.totalSamples(),
              cell.result.nvmOccupancy.totalSamples());
}

TEST(ResultCacheTest, MissesOnUnknownFingerprint)
{
    const ExperimentCell cell = simulatedCell();
    const ResultCache cache(scratchDir("miss"));
    cache.store(cell);
    EXPECT_FALSE(
        cache.load(cell.point, cell.fingerprint ^ 1).has_value());
}

TEST(ResultCacheTest, MissesWhenFingerprintInputsChange)
{
    const ExperimentCell cell = simulatedCell();
    const ResultCache cache(scratchDir("invalidate"));
    cache.store(cell);

    ExperimentPoint tweaked = cell.point;
    tweaked.simParams.core.wbSize = 32;
    const std::uint64_t new_fp = exp::fingerprintPoint(tweaked);
    EXPECT_NE(new_fp, cell.fingerprint);
    EXPECT_FALSE(cache.load(tweaked, new_fp).has_value());
}

TEST(ResultCacheTest, TreatsCorruptSnapshotsAsMisses)
{
    const ExperimentCell cell = simulatedCell();
    const std::string dir = scratchDir("corrupt");
    const ResultCache cache(dir);
    cache.store(cell);

    // Truncate / scribble over the snapshot file.
    const std::string path =
        dir + "/" + exp::fingerprintHex(cell.fingerprint) + ".snapshot";
    ASSERT_TRUE(std::filesystem::exists(path));
    std::ofstream(path, std::ios::trunc) << "not a snapshot";
    EXPECT_FALSE(cache.load(cell.point, cell.fingerprint).has_value());

    // A traffic cell whose stream count claims more records than any
    // file holds: still a miss, not an allocation failure.
    ExperimentPoint p;
    p.label = "traffic-cell";
    p.config = Config::WB;
    p.simParams = makeParams(Config::WB);
    p.simParams.coreCount = 2;
    p.traffic = true;
    p.trafficPlan.streams = 2;
    p.trafficPlan.txnsPerStream = 4;
    p.trafficPlan.opsPerTxn = 2;
    p.trafficPlan.mix.keys = 32;
    ExperimentPlan plan;
    plan.add(p);
    RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const ExperimentCell traffic = exp::runPlan(plan, opt).cells().front();
    ASSERT_TRUE(traffic.result.traffic.enabled);
    std::string text = exp::serializeCell(traffic);
    const std::size_t at = text.find("\nstreams ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t num = at + 9;
    text.replace(num, text.find('\n', num) - num, "4000000000000");
    cache.store(traffic);
    std::ofstream(dir + "/" + exp::fingerprintHex(traffic.fingerprint) +
                      ".snapshot",
                  std::ios::trunc)
        << text;
    EXPECT_FALSE(
        cache.load(traffic.point, traffic.fingerprint).has_value());
}

TEST(ResultCacheTest, RoundTripsAMultiCoreConcCell)
{
    // Multi-core snapshots append a perCore section; the restored
    // cell must carry every core's counters, not just the core-0
    // aggregates the single-core format persists.
    ExperimentPoint p;
    p.label = "conc-cell";
    p.config = Config::IQ;
    p.simParams = makeParams(Config::IQ);
    p.simParams.coreCount = 2;
    p.conc = true;
    p.concApp = ConcApp::MsQueue;
    p.concOpsPerCore = 8;
    p.concSeed = 42;

    ExperimentPlan plan;
    plan.add(p);
    RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const ExperimentResults fresh = exp::runPlan(plan, opt);
    const ExperimentCell &cell = fresh.cells().front();
    ASSERT_EQ(cell.result.coreCount, 2);
    ASSERT_EQ(cell.result.perCore.size(), 2u);

    const ResultCache cache(scratchDir("conc_cell"));
    cache.store(cell);
    const auto hit = cache.load(cell.point, cell.fingerprint);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromCache);
    ASSERT_EQ(hit->result.perCore.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(hit->result.perCore[c].core,
                  cell.result.perCore[c].core);
        EXPECT_EQ(hit->result.perCore[c].stats.cycles,
                  cell.result.perCore[c].stats.cycles);
        EXPECT_EQ(hit->result.perCore[c].stats.retired,
                  cell.result.perCore[c].stats.retired);
        EXPECT_EQ(hit->result.perCore[c].wb.pushes,
                  cell.result.perCore[c].wb.pushes);
        EXPECT_EQ(hit->result.perCore[c].l1d.misses,
                  cell.result.perCore[c].l1d.misses);
    }
    EXPECT_EQ(hit->result.coherence.snoops,
              cell.result.coherence.snoops);
    // serializeCell covers the whole persisted snapshot.
    EXPECT_EQ(exp::serializeCell(*hit), exp::serializeCell(cell));
}

TEST(ResultCacheTest, RejectsSnapshotForDifferentPoint)
{
    const ExperimentCell cell = simulatedCell();
    // Same fingerprint claimed for a different app: the stored app
    // name no longer matches, so the snapshot must not be trusted.
    ExperimentPoint other = cell.point;
    other.app = AppId::Swap;
    const auto rejected = exp::deserializeCell(
        exp::serializeCell(cell), other, cell.fingerprint);
    EXPECT_FALSE(rejected.has_value());
}

// ---------------------------------------------------------------- //
// Runner + keyed results
// ---------------------------------------------------------------- //

TEST(Runner, SecondRunIsAllCacheHits)
{
    ExperimentPlan plan;
    plan.addGrid({AppId::Update, AppId::Swap},
                 {Config::B, Config::WB}, tiny());
    RunnerOptions opt;
    opt.jobs = 2;
    opt.cacheDir = scratchDir("runner");
    opt.printSummary = false;

    const ExperimentResults cold = exp::runPlan(plan, opt);
    EXPECT_EQ(cold.simulated(), 4u);
    EXPECT_EQ(cold.cacheHits(), 0u);

    const ExperimentResults warm = exp::runPlan(plan, opt);
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(warm.cacheHits(), 4u);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(exp::serializeCell(warm.cells()[i]),
                  exp::serializeCell(cold.cells()[i]));
    }
}

TEST(Runner, ParallelRunIsBitIdenticalToSerial)
{
    ExperimentPlan plan;
    plan.addGrid({AppId::Update, AppId::Btree},
                 {kAllConfigs.begin(), kAllConfigs.end()}, tiny());

    RunnerOptions serial;
    serial.jobs = 1;
    serial.printSummary = false;
    RunnerOptions parallel = serial;
    parallel.jobs = 8;

    const ExperimentResults a = exp::runPlan(plan, serial);
    const ExperimentResults b = exp::runPlan(plan, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Serialization covers cycles, op-phase cycles and every
        // statistic including the issue histogram and the NVM
        // occupancy distribution.
        EXPECT_EQ(exp::serializeCell(a.cells()[i]),
                  exp::serializeCell(b.cells()[i]))
            << "cell " << a.cells()[i].point.label;
    }
}

TEST(Results, KeyedLookupFindsEveryPlannedCell)
{
    ExperimentPlan plan;
    plan.addGrid({AppId::Update}, {Config::B, Config::U}, tiny());
    RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const ExperimentResults results = exp::runPlan(plan, opt);

    EXPECT_EQ(results.cell(AppId::Update, Config::B).point.config,
              Config::B);
    EXPECT_EQ(results.cellByLabel("update/U").point.config, Config::U);
    EXPECT_NE(results.find(AppId::Update, Config::U), nullptr);
    EXPECT_EQ(results.find(AppId::Update, Config::WB), nullptr);
    EXPECT_EQ(results.findByLabel("swap/B"), nullptr);
}

TEST(ResultsDeathTest, MissingCellFailsWithClearMessage)
{
    ExperimentPlan plan;
    plan.addCell(AppId::Update, Config::B, tiny());
    RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    const ExperimentResults results = exp::runPlan(plan, opt);

    EXPECT_EXIT(results.cell(AppId::Rtree, Config::WB),
                ::testing::ExitedWithCode(1),
                "no cell for app 'rtree' config 'WB'");
    EXPECT_EXIT(results.cellByLabel("nope"),
                ::testing::ExitedWithCode(1), "no cell labeled 'nope'");
}

// ---------------------------------------------------------------- //
// Log job tags
// ---------------------------------------------------------------- //

TEST(Logging, JobTagPrefixesAndNests)
{
    EXPECT_EQ(logJobTag(), "");
    {
        LogJobTag outer("outer");
        EXPECT_EQ(logJobTag(), "outer");
        testing::internal::CaptureStderr();
        ede_warn("tagged line");
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "warn: [outer] tagged line"),
                  std::string::npos);
        {
            LogJobTag inner("inner");
            EXPECT_EQ(logJobTag(), "inner");
        }
        EXPECT_EQ(logJobTag(), "outer");
    }
    EXPECT_EQ(logJobTag(), "");
    testing::internal::CaptureStderr();
    ede_warn("untagged line");
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "warn: untagged line"),
              std::string::npos);
}

TEST(Logging, TagIsPerThread)
{
    const LogJobTag tag("main-thread");
    std::string other;
    std::thread t([&] { other = logJobTag(); });
    t.join();
    EXPECT_EQ(other, "");
    EXPECT_EQ(logJobTag(), "main-thread");
}

TEST(ResultCacheTest, SweepsStaleTempFilesAtOpen)
{
    // The satellite fix: a writer that died between temp-file create
    // and rename used to leak `*.tmp.*` files forever; opening the
    // cache now sweeps them.
    const std::string dir = scratchDir("tmpsweep");
    std::filesystem::create_directories(dir);
    const std::string stale =
        dir + "/0123456789abcdef.snapshot.tmp.12345";
    std::ofstream(stale) << "orphaned partial write";
    ASSERT_TRUE(std::filesystem::exists(stale));

    const ResultCache cache(dir);
    EXPECT_FALSE(std::filesystem::exists(stale));
}

// ---------------------------------------------------------------- //
// Campaign worker wire format
// ---------------------------------------------------------------- //

TEST(CampaignWire, ConfigResultRoundTrips)
{
    CampaignOptions options;
    options.spec = RunSpec{3, 4, 42};
    options.pointsPerConfig = 8;
    options.configs = {Config::B, Config::U};
    const CampaignReport report = runCampaign(options);
    ASSERT_EQ(report.configs.size(), 2u);

    for (const CampaignConfigResult &c : report.configs) {
        const std::string wire = serializeConfigResult(c);
        const auto back = deserializeConfigResult(wire);
        ASSERT_TRUE(back.has_value());
        // Serialization is exact, so a second trip is byte-stable.
        EXPECT_EQ(serializeConfigResult(*back), wire);
        EXPECT_EQ(back->config, c.config);
        EXPECT_EQ(back->cycles, c.cycles);
        EXPECT_EQ(back->unrecoverable, c.unrecoverable);
        ASSERT_EQ(back->results.size(), c.results.size());
        ASSERT_EQ(back->failures.size(), c.failures.size());
    }
    EXPECT_FALSE(deserializeConfigResult("garbage").has_value());
    EXPECT_FALSE(deserializeConfigResult("").has_value());
}

TEST(CampaignWire, SweepIdTracksEveryInput)
{
    CampaignOptions a;
    EXPECT_EQ(campaignSweepId(a), campaignSweepId(a));
    CampaignOptions b = a;
    b.seed ^= 1;
    EXPECT_NE(campaignSweepId(a), campaignSweepId(b));
    CampaignOptions c = a;
    c.pointsPerConfig += 1;
    EXPECT_NE(campaignSweepId(a), campaignSweepId(c));
    CampaignOptions d = a;
    d.configs = {Config::B};
    EXPECT_NE(campaignSweepId(a), campaignSweepId(d));
}

TEST(CampaignIsolated, MatchesInProcessResultsAndResumes)
{
    CampaignOptions options;
    options.spec = RunSpec{3, 4, 42};
    options.pointsPerConfig = 8;
    options.configs = {Config::B, Config::U};

    const CampaignReport inProc = runCampaign(options);

    exp::Isolation &iso = options.isolation;
    iso.isolate = true;
    options.jobs = 2;
    iso.retry.backoffBaseMs = 1;
    iso.journalPath = scratchDir("campaign_iso") + "/campaign.journal";
    std::filesystem::create_directories(
        std::filesystem::path(iso.journalPath).parent_path());
    const CampaignReport isolated = runCampaign(options);

    EXPECT_TRUE(isolated.quarantined.empty());
    EXPECT_EQ(campaignToJson(inProc), campaignToJson(isolated));

    // Resume replays the journal; the artifact stays byte-identical.
    iso.resume = true;
    const CampaignReport resumed = runCampaign(options);
    EXPECT_EQ(campaignToJson(isolated), campaignToJson(resumed));
}

TEST(CampaignIsolated, QuarantinesACrashingConfigAndFinishesTheRest)
{
    CampaignOptions options;
    options.spec = RunSpec{3, 4, 42};
    options.pointsPerConfig = 8;
    options.configs = {Config::B, Config::U};
    options.isolation.isolate = true;
    options.jobs = 2;
    options.isolation.retry.maxAttempts = 2;
    options.isolation.retry.backoffBaseMs = 1;
    options.isolation.chaosLabel = "B";

    const CampaignReport report = runCampaign(options);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].config, Config::B);
    EXPECT_EQ(report.quarantined[0].failure.outcome,
              exp::JobOutcome::Crashed);
    EXPECT_EQ(report.quarantined[0].failure.attempts, 2u);
    ASSERT_EQ(report.configs.size(), 1u);
    EXPECT_EQ(report.configs[0].config, Config::U);
    EXPECT_GT(report.configs[0].points, 0u);
    EXPECT_FALSE(report.ok());
    // The JSON artifact carries the quarantine record.
    EXPECT_NE(campaignToJson(report).find("\"quarantined\""),
              std::string::npos);
    EXPECT_NE(campaignToJson(report).find("\"crashed\""),
              std::string::npos);
}

TEST(CampaignParallel, BitIdenticalAcrossJobCounts)
{
    CampaignOptions options;
    options.spec = RunSpec{3, 4, 42};
    options.pointsPerConfig = 12;

    options.jobs = 1;
    const CampaignReport serial = runCampaign(options);
    options.jobs = 4;
    const CampaignReport parallel = runCampaign(options);

    EXPECT_EQ(serial.describe(), parallel.describe());
    ASSERT_EQ(serial.configs.size(), parallel.configs.size());
    for (std::size_t c = 0; c < serial.configs.size(); ++c) {
        const CampaignConfigResult &s = serial.configs[c];
        const CampaignConfigResult &p = parallel.configs[c];
        EXPECT_EQ(s.cycles, p.cycles);
        EXPECT_EQ(s.transientRejects, p.transientRejects);
        ASSERT_EQ(s.results.size(), p.results.size());
        for (std::size_t i = 0; i < s.results.size(); ++i) {
            EXPECT_EQ(s.results[i].crashCycle,
                      p.results[i].crashCycle);
            EXPECT_EQ(s.results[i].outcome, p.results[i].outcome);
            EXPECT_EQ(s.results[i].entriesTorn,
                      p.results[i].entriesTorn);
        }
    }
}

/**
 * runConfigSweep's one-job contract: each configuration's wire form
 * is the same in process at jobs 1 and 3 and under isolation.
 */
template <class Report, class Options>
void
expectOneJobContract(Options options, Report (*run)(const Options &),
                     std::string (*serialize)(
                         const SweepResult<Report> &))
{
    options.jobs = 1;
    const Report serial = run(options);
    options.jobs = 3;
    const Report parallel = run(options);
    options.isolation.isolate = true;
    options.isolation.retry.backoffBaseMs = 1;
    const Report isolated = run(options);

    ASSERT_EQ(serial.configs.size(), options.configs.size());
    ASSERT_EQ(parallel.configs.size(), serial.configs.size());
    ASSERT_EQ(isolated.configs.size(), serial.configs.size());
    for (std::size_t i = 0; i < serial.configs.size(); ++i) {
        const std::string wire = serialize(serial.configs[i]);
        const std::string_view cfg = configName(options.configs[i]);
        EXPECT_EQ(serialize(parallel.configs[i]), wire) << cfg;
        EXPECT_EQ(serialize(isolated.configs[i]), wire) << cfg;
    }
}

TEST(SweepContract, ConcCampaignRunsOneJobPerConfig)
{
    ConcCampaignOptions options;
    options.opsPerCore = 4;
    options.pointsPerConfig = 12;
    options.configs = {Config::B, Config::IQ, Config::U};
    expectOneJobContract(options, runConcCampaign,
                         serializeConcCampaignResult);
}

TEST(SweepContract, ModelCheckRunsOneJobPerConfig)
{
    ModelCheckOptions options;
    options.seedBug = true;  // Counterexamples ride the wire too.
    expectOneJobContract(options, runModelCheck,
                         serializeModelCheckResult);
}

TEST(SweepContract, ConcCheckRunsOneJobPerConfig)
{
    ConcCheckOptions options;
    options.app = ConcApp::RwLock;
    options.workloadSeed = 57;
    options.seedBug = true;
    expectOneJobContract(options, runConcCheck,
                         serializeConcCheckResult);
}

} // namespace
} // namespace ede
