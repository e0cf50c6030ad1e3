/**
 * @file
 * Tests for the process-isolated experiment backend: worker failure
 * classification (crash / timeout / OOM / SimFault), stderr capture,
 * the retry/backoff policy, the crash-safe sweep journal, quarantine
 * semantics of the isolated runner, journal-driven resume, and the
 * SimFaultError propagation contract in sim::Session and
 * WorkloadHarness that the workers rely on.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "apps/harness.hh"
#include "exp/fingerprint.hh"
#include "exp/journal.hh"
#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "exp/worker.hh"
#include "sim_test_util.hh"

namespace ede {
namespace {

using exp::ExperimentPlan;
using exp::ExperimentPoint;
using exp::ExperimentResults;
using exp::JobFailure;
using exp::JobOutcome;
using exp::JournalEntry;
using exp::RetryPolicy;
using exp::RunnerOptions;
using exp::SweepJournal;
using exp::WorkerLimits;
using exp::WorkerRun;

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
    const std::string dir = "worker_test_scratch/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Quick retry policy so failure tests don't sleep for real. */
RetryPolicy
fastRetry(unsigned attempts = 1)
{
    RetryPolicy r;
    r.maxAttempts = attempts;
    r.backoffBaseMs = 1;
    r.backoffMaxMs = 2;
    return r;
}

// ---------------------------------------------------------------- //
// runForked: classification
// ---------------------------------------------------------------- //

TEST(Worker, ShipsThePayloadBack)
{
    const WorkerRun run = exp::runForked(
        [] { return std::string("hello from the child\nline 2"); },
        WorkerLimits{});
    ASSERT_TRUE(run.ok()) << run.failure.describe();
    EXPECT_EQ(run.payload, "hello from the child\nline 2");
}

TEST(Worker, ClassifiesAbortAsCrashWithSignal)
{
    const WorkerRun run = exp::runForked(
        []() -> std::string { std::abort(); }, WorkerLimits{});
    EXPECT_EQ(run.outcome, JobOutcome::Crashed);
    EXPECT_EQ(run.failure.signal, SIGABRT);
    EXPECT_TRUE(exp::outcomeIsTransient(run.outcome));
}

TEST(Worker, CapturesTheChildStderrTail)
{
    const WorkerRun run = exp::runForked(
        []() -> std::string {
            std::fprintf(stderr, "diagnostic before the crash\n");
            std::fflush(stderr);
            std::abort();
        },
        WorkerLimits{});
    EXPECT_EQ(run.outcome, JobOutcome::Crashed);
    EXPECT_NE(run.failure.stderrTail.find("diagnostic before the"),
              std::string::npos)
        << run.failure.stderrTail;
}

TEST(Worker, BoundsTheStderrTail)
{
    WorkerLimits limits;
    limits.stderrTailBytes = 16;
    const WorkerRun run = exp::runForked(
        []() -> std::string {
            for (int i = 0; i < 100; ++i)
                std::fprintf(stderr, "spam line %d\n", i);
            std::fflush(stderr);
            std::abort();
        },
        limits);
    EXPECT_LE(run.failure.stderrTail.size(), 16u);
}

TEST(Worker, ClassifiesAHangAsTimedOut)
{
    WorkerLimits limits;
    limits.timeoutMs = 100;
    const WorkerRun run = exp::runForked(
        []() -> std::string {
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(1));
        },
        limits);
    EXPECT_EQ(run.outcome, JobOutcome::TimedOut);
    EXPECT_EQ(run.failure.signal, SIGKILL);
    EXPECT_TRUE(exp::outcomeIsTransient(run.outcome));
}

TEST(Worker, ClassifiesExhaustedMemoryAsOom)
{
    if (exp::kMemLimitIgnored)
        GTEST_SKIP() << "RLIMIT_AS is not applied under ASan or TSan";
    WorkerLimits limits;
    limits.memLimitBytes = 192ull * 1024 * 1024;
    const WorkerRun run = exp::runForked(
        []() -> std::string {
            std::vector<std::unique_ptr<char[]>> hog;
            for (;;) {
                hog.push_back(
                    std::make_unique<char[]>(16ull * 1024 * 1024));
                // Touch the pages so the allocation is real.
                for (std::size_t i = 0; i < 16ull * 1024 * 1024;
                     i += 4096)
                    hog.back()[i] = 1;
            }
        },
        limits);
    EXPECT_EQ(run.outcome, JobOutcome::OutOfMemory);
    EXPECT_TRUE(exp::outcomeIsTransient(run.outcome));
}

TEST(Worker, ClassifiesSimFaultErrorWithItsReport)
{
    const WorkerRun run = exp::runForked(
        []() -> std::string {
            SimError err;
            err.kind = SimErrorKind::WatchdogNoProgress;
            err.cycle = 1234;
            err.lastProgressCycle = 200;
            throw SimFaultError(err);
        },
        WorkerLimits{});
    EXPECT_EQ(run.outcome, JobOutcome::SimFault);
    EXPECT_FALSE(exp::outcomeIsTransient(run.outcome));
    EXPECT_NE(run.failure.message.find("watchdog-no-progress"),
              std::string::npos)
        << run.failure.message;
    EXPECT_NE(run.failure.message.find("1234"), std::string::npos);
}

TEST(Worker, EscapedExceptionIsACrashCarryingItsMessage)
{
    const WorkerRun run = exp::runForked(
        []() -> std::string {
            throw std::runtime_error("the job escaped");
        },
        WorkerLimits{});
    EXPECT_EQ(run.outcome, JobOutcome::Crashed);
    EXPECT_EQ(run.failure.message, "the job escaped");
}

TEST(Worker, DescribeNamesOutcomeSignalAndAttempts)
{
    JobFailure f;
    f.outcome = JobOutcome::Crashed;
    f.signal = SIGABRT;
    f.attempts = 3;
    const std::string d = f.describe();
    EXPECT_NE(d.find("crashed"), std::string::npos) << d;
    EXPECT_NE(d.find("signal 6"), std::string::npos) << d;
    EXPECT_NE(d.find("3 attempts"), std::string::npos) << d;
}

// ---------------------------------------------------------------- //
// runWithRetry
// ---------------------------------------------------------------- //

TEST(WorkerRetry, TransientFailureUsesEveryAttempt)
{
    const WorkerRun run = exp::runWithRetry(
        []() -> std::string { std::abort(); }, WorkerLimits{},
        fastRetry(3), /*jitterSeed=*/42);
    EXPECT_EQ(run.outcome, JobOutcome::Crashed);
    EXPECT_EQ(run.failure.attempts, 3u);
}

TEST(WorkerRetry, SimFaultIsDeterministicAndNeverRetried)
{
    const WorkerRun run = exp::runWithRetry(
        []() -> std::string {
            SimError err;
            err.kind = SimErrorKind::MaxCyclesExceeded;
            throw SimFaultError(err);
        },
        WorkerLimits{}, fastRetry(5), /*jitterSeed=*/42);
    EXPECT_EQ(run.outcome, JobOutcome::SimFault);
    EXPECT_EQ(run.failure.attempts, 1u);
}

TEST(WorkerRetry, SuccessReturnsImmediately)
{
    const WorkerRun run = exp::runWithRetry(
        [] { return std::string("ok"); }, WorkerLimits{},
        fastRetry(5), /*jitterSeed=*/42);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.payload, "ok");
    EXPECT_EQ(run.failure.attempts, 1u);
}

// ---------------------------------------------------------------- //
// Sweep journal
// ---------------------------------------------------------------- //

TEST(Journal, EscapeRoundTripsArbitraryBytes)
{
    const std::string raw("a b\tc\nd%e\0f", 11);
    EXPECT_EQ(exp::journalUnescape(exp::journalEscape(raw)), raw);
    EXPECT_EQ(exp::journalEscape(raw).find(' '), std::string::npos);
    EXPECT_EQ(exp::journalUnescape(exp::journalEscape("")), "");
}

TEST(Journal, ReplaysOkAndQuarantineRecords)
{
    const std::string path = scratchDir("journal") + "/sweep.journal";
    {
        SweepJournal j(path, /*sweepId=*/0x1234, /*points=*/3,
                       /*resume=*/false);
        j.recordOk(0, 0xaaa, "payload zero");
        JobFailure f;
        f.outcome = JobOutcome::TimedOut;
        f.signal = SIGKILL;
        f.attempts = 2;
        f.message = "hung";
        f.stderrTail = "tail text\n";
        j.recordQuarantine(2, 0xccc, f);
    }
    SweepJournal j(path, 0x1234, 3, /*resume=*/true);
    ASSERT_EQ(j.replayed().size(), 2u);
    const JournalEntry &ok = j.replayed().at(0);
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.fingerprint, 0xaaau);
    EXPECT_EQ(ok.payload, "payload zero");
    const JournalEntry &q = j.replayed().at(2);
    EXPECT_FALSE(q.ok);
    EXPECT_EQ(q.fingerprint, 0xcccu);
    EXPECT_EQ(q.failure.outcome, JobOutcome::TimedOut);
    EXPECT_EQ(q.failure.signal, SIGKILL);
    EXPECT_EQ(q.failure.attempts, 2u);
    EXPECT_EQ(q.failure.message, "hung");
    EXPECT_EQ(q.failure.stderrTail, "tail text\n");
}

TEST(Journal, DropsATornFinalLine)
{
    const std::string path = scratchDir("torn") + "/sweep.journal";
    {
        SweepJournal j(path, 0x99, 2, false);
        j.recordOk(0, 0x1, "first");
        j.recordOk(1, 0x2, "second");
    }
    // Simulate a SIGKILL mid-append: truncate inside the last line.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    SweepJournal j(path, 0x99, 2, true);
    ASSERT_EQ(j.replayed().size(), 1u);
    EXPECT_EQ(j.replayed().at(0).payload, "first");
}

TEST(Journal, MismatchedSweepIdentityStartsFresh)
{
    const std::string path = scratchDir("mismatch") + "/sweep.journal";
    {
        SweepJournal j(path, /*sweepId=*/0x1, 2, false);
        j.recordOk(0, 0xa, "stale");
    }
    SweepJournal j(path, /*sweepId=*/0x2, 2, /*resume=*/true);
    EXPECT_TRUE(j.replayed().empty());
}

// ---------------------------------------------------------------- //
// Isolated runner
// ---------------------------------------------------------------- //

ExperimentPlan
smallPlan()
{
    ExperimentPlan plan;
    plan.addGrid({AppId::Update}, {Config::B, Config::WB}, tiny());
    return plan;
}

RunnerOptions
isolatedOptions()
{
    RunnerOptions opt;
    opt.jobs = 2;
    opt.printSummary = false;
    opt.isolation.isolate = true;
    opt.isolation.retry = fastRetry(2);
    return opt;
}

TEST(RunnerIsolation, IsBitIdenticalToTheInlinePath)
{
    const ExperimentPlan plan = smallPlan();
    RunnerOptions inlineOpt;
    inlineOpt.jobs = 1;
    inlineOpt.printSummary = false;
    const ExperimentResults inlineRes = runPlan(plan, inlineOpt);
    const ExperimentResults isoRes = runPlan(plan, isolatedOptions());

    ASSERT_EQ(inlineRes.size(), isoRes.size());
    EXPECT_TRUE(isoRes.allOk());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(exp::serializeCell(inlineRes.cells()[i]),
                  exp::serializeCell(isoRes.cells()[i]))
            << plan.points()[i].label;
    }
}

TEST(RunnerIsolation, QuarantinesThePoisonCellAndFinishesTheRest)
{
    const ExperimentPlan plan = smallPlan();
    RunnerOptions opt = isolatedOptions();
    opt.isolation.chaosLabel = plan.points()[0].label;
    const ExperimentResults res = runPlan(plan, opt);

    ASSERT_EQ(res.failures().size(), 1u);
    const exp::ExperimentCell &bad = *res.failures()[0];
    EXPECT_EQ(bad.point.label, plan.points()[0].label);
    EXPECT_EQ(bad.failure.outcome, JobOutcome::Crashed);
    EXPECT_EQ(bad.failure.signal, SIGABRT);
    EXPECT_EQ(bad.failure.attempts, 2u);  // Retried, then quarantined.

    // Every other cell completed with real measurements.
    for (std::size_t i = 1; i < plan.size(); ++i) {
        EXPECT_FALSE(res.cells()[i].failed);
        EXPECT_GT(res.cells()[i].result.cycles, 0u);
    }
}

TEST(RunnerIsolation, ResumeReplaysTheJournalInsteadOfSimulating)
{
    const ExperimentPlan plan = smallPlan();
    const std::string dir = scratchDir("resume");
    RunnerOptions opt = isolatedOptions();
    opt.isolation.journalPath = dir + "/sweep.journal";
    const ExperimentResults first = runPlan(plan, opt);
    ASSERT_TRUE(first.allOk());

    opt.isolation.resume = true;
    const ExperimentResults second = runPlan(plan, opt);
    EXPECT_EQ(second.journalReplays(), plan.size());
    EXPECT_EQ(second.simulated(), 0u);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(exp::serializeCell(first.cells()[i]),
                  exp::serializeCell(second.cells()[i]));
    }
}

TEST(RunnerIsolation, ResumeKeepsAJournaledQuarantine)
{
    const ExperimentPlan plan = smallPlan();
    const std::string dir = scratchDir("resume_poison");
    RunnerOptions opt = isolatedOptions();
    opt.isolation.journalPath = dir + "/sweep.journal";
    opt.isolation.chaosLabel = plan.points()[1].label;
    const ExperimentResults first = runPlan(plan, opt);
    ASSERT_EQ(first.failures().size(), 1u);

    // Resume without the chaos hook: the poison cell's quarantine is
    // a durable verdict, not retried on every resume.
    opt.isolation.chaosLabel.clear();
    opt.isolation.resume = true;
    const ExperimentResults second = runPlan(plan, opt);
    ASSERT_EQ(second.failures().size(), 1u);
    EXPECT_EQ(second.failures()[0]->point.label,
              plan.points()[1].label);
    EXPECT_EQ(second.simulated(), 0u);
}

// ---------------------------------------------------------------- //
// Structured-abort propagation (Session / WorkloadHarness)
// ---------------------------------------------------------------- //

TEST(SimFaultPropagation, RunReturnsMaxCyclesExceeded)
{
    CoreParams overrides;
    overrides.maxCycles = 20;
    MiniSim sim(EnforceMode::None, overrides);
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 64; ++i)
        b.str(8, 2, MiniSim::dramLine(i % 8), i);
    const SimResult r = sim.session.run(RunRequest::of(t));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::MaxCyclesExceeded);
    // Rethrowing the structured error keeps the historical what()
    // formatting the isolated workers ship to their parents.
    const SimFaultError e{r.error};
    EXPECT_NE(std::string(e.what()).find("max-cycles-exceeded"),
              std::string::npos)
        << e.what();
}

TEST(SimFaultPropagation, RunReturnsEdkDependenceCycle)
{
    // The forged forward srcID link from the detector tests: the only
    // way this pipeline forms a genuine dependence cycle.
    CoreParams overrides;
    overrides.edkRecoveryMode = EdkRecoveryMode::Report;
    overrides.edkStallCycles = 2'000;
    overrides.watchdogCycles = 100'000;
    MiniSim sim(EnforceMode::IQ, overrides);
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 3; ++i)
        b.str(8, 2, MiniSim::dramLine(i), i);
    b.movImm(10, 3);
    b.mul(11, 10, 10);
    b.mul(12, 11, 11);
    const std::size_t x = b.str(12, 2, sim.nvmLine(0), 1, 0, {4, 0});
    b.str(13, 2, MiniSim::dramLine(3), 2, 0, {0, 4});
    for (int i = 0; i < 3; ++i)
        b.str(14, 2, MiniSim::dramLine(4 + i), i);
    sim.core->corruptEdeLink(x, 1);

    const SimResult r = sim.session.run(RunRequest::of(t));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.kind, SimErrorKind::EdkDependenceCycle);
    EXPECT_FALSE(r.error.edkChain.empty());
    const SimFaultError e{r.error};
    EXPECT_NE(std::string(e.what()).find("edk-dependence-cycle"),
              std::string::npos)
        << e.what();
}

TEST(SimFaultPropagation, RunSucceedsThenRejectsReuse)
{
    MiniSim sim(EnforceMode::None);
    Trace t;
    TraceBuilder b(t);
    b.str(8, 2, MiniSim::dramLine(0), 1);
    const SimResult r = sim.session.run(RunRequest::of(t));
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.cycles(), 0u);

    // The session is single-shot: a second run comes back as a
    // structured SessionReused error, not a process abort.
    const SimResult again = sim.session.run(RunRequest::of(t));
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error.kind, SimErrorKind::SessionReused);
    EXPECT_NE(again.error.detail.find("single-shot"),
              std::string::npos);
}

TEST(SimFaultPropagation, HarnessSimulateThrowsTyped)
{
    // Throttle the backstop so the workload cannot finish in budget:
    // simulate must raise the typed fault, not panic.
    exp::ExperimentPlan plan;
    plan.addGrid({AppId::Update}, {Config::B}, tiny());
    exp::ExperimentPoint point = plan.points()[0];
    point.simParams.core.maxCycles = 20;
    WorkloadHarness h(point.app, point.config, point.spec,
                      point.appParams, point.simParams);
    h.generate();
    try {
        h.simulate();
        FAIL() << "expected SimFaultError";
    } catch (const SimFaultError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::MaxCyclesExceeded);
    }
}

/**
 * In process, runPlan on @p point alone, with a cycle backstop no
 * run can meet, raises the typed fault the isolated path reports.
 */
void
expectInProcessMaxCycles(ExperimentPoint point)
{
    point.simParams.core.maxCycles = 20;
    ExperimentPlan plan;
    plan.add(std::move(point));
    RunnerOptions opt;
    opt.jobs = 1;
    opt.printSummary = false;
    try {
        runPlan(plan, opt);
        FAIL() << "expected SimFaultError";
    } catch (const SimFaultError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::MaxCyclesExceeded);
    }
}

/** A two-core point of @p cfg labelled @p label. */
ExperimentPoint
twoCorePoint(Config cfg, std::string label)
{
    ExperimentPoint point;
    point.label = std::move(label);
    point.config = cfg;
    point.simParams = SimConfig::paper(cfg).withCoreCount(2).params();
    return point;
}

TEST(SimFaultPropagation, InProcessConcCellThrowsTyped)
{
    ExperimentPoint point = twoCorePoint(Config::IQ, "IQ/msqueue/2c");
    point.conc = true;
    point.concOpsPerCore = 4;
    expectInProcessMaxCycles(std::move(point));
}

TEST(SimFaultPropagation, InProcessTrafficCellThrowsTyped)
{
    ExperimentPoint point = twoCorePoint(Config::WB, "WB/g2000");
    point.traffic = true;
    point.trafficPlan.txnsPerStream = 8;
    expectInProcessMaxCycles(std::move(point));
}

} // namespace
} // namespace ede
