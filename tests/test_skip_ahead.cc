/**
 * @file
 * Differential validation of the skip-ahead scheduler.
 *
 * Under skip-ahead ticking the run loop (CoreGroup::run) jumps dead
 * windows using component next-event hints; under reference ticking
 * it ticks every cycle.  The contract is bit-identical *simulated*
 * results: the whole RunResult in the wire form the result cache
 * stores (every core, cache, DRAM, NVM and coherence counter,
 * replayed dead-tick stalls and refused retries included) and the
 * same persist order -- for every Table III configuration.  Only the
 * host profile (wall time, tick counts, skip counters) may differ.
 *
 * These tests pin the ticking mode through SimConfig/CoreParams
 * rather than the EDE_REFERENCE_TICKING environment variable, which
 * is resolved once per process and so cannot drive a differential
 * test.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>

#include "apps/harness.hh"
#include "exp/fields.hh"
#include "pipeline/run_loop.hh"
#include "sim_test_util.hh"
#include "wire_test_util.hh"

namespace ede {
namespace {

/** Everything a differential comparison looks at. */
struct RunSnapshot
{
    RunResult result;
    Cycle opCycles = 0;
    std::vector<PersistEvent> persists;
    std::vector<MediaWriteEvent> mediaWrites;
    HostProfile profile;
};

/**
 * Table I with a 4-slot WPQ drained by one media writer: the buffer
 * stays full and the L3 retries refused writebacks and cleans for
 * most of a run.
 */
MemSystemParams
tinyWpq()
{
    MemSystemParams m;
    m.nvm.bufferSlots = 4;
    m.nvm.mediaWriters = 1;
    return m;
}

RunSnapshot
runWorkload(AppId app, Config cfg, TickingMode mode,
            const MemSystemParams &mem = {})
{
    const RunSpec spec{6, 6, 42};
    SimParams params = makeParams(cfg);
    params.core.ticking = mode;
    params.mem = mem;
    WorkloadHarness h(app, cfg, spec, AppParams{}, params);
    h.generate();
    h.simulate();
    RunSnapshot snap;
    snap.result = h.system().result();
    snap.opCycles = h.opPhaseCycles();
    snap.persists = h.system().persistEvents();
    snap.mediaWrites = h.system().mediaWriteEvents();
    snap.profile = h.system().profile();
    return snap;
}

void
expectSameSnapshot(const RunSnapshot &ref, const RunSnapshot &skip)
{
    expectSameWire(exp::toWire("run", ref.result),
                   exp::toWire("run", skip.result));
    EXPECT_EQ(ref.opCycles, skip.opCycles);

    // Persist order is the crash-consistency ground truth; the fault
    // campaign's crash-point classification follows from it and the
    // media-write schedule, so identity here covers the campaign.
    ASSERT_EQ(ref.persists.size(), skip.persists.size());
    for (std::size_t i = 0; i < ref.persists.size(); ++i) {
        EXPECT_EQ(ref.persists[i].addr, skip.persists[i].addr) << i;
        EXPECT_EQ(ref.persists[i].size, skip.persists[i].size) << i;
        EXPECT_EQ(ref.persists[i].cycle, skip.persists[i].cycle) << i;
    }
    ASSERT_EQ(ref.mediaWrites.size(), skip.mediaWrites.size());
    for (std::size_t i = 0; i < ref.mediaWrites.size(); ++i) {
        EXPECT_EQ(ref.mediaWrites[i].lineAddr,
                  skip.mediaWrites[i].lineAddr) << i;
        EXPECT_EQ(ref.mediaWrites[i].cycle,
                  skip.mediaWrites[i].cycle) << i;
    }
}

class SkipAheadDifferential
    : public ::testing::TestWithParam<Config>
{
};

TEST_P(SkipAheadDifferential, UpdateWorkloadIsBitIdentical)
{
    const RunSnapshot ref = runWorkload(AppId::Update, GetParam(),
                                        TickingMode::Reference);
    const RunSnapshot skip = runWorkload(AppId::Update, GetParam(),
                                         TickingMode::SkipAhead);
    expectSameSnapshot(ref, skip);
}

TEST_P(SkipAheadDifferential, SwapWorkloadIsBitIdentical)
{
    const RunSnapshot ref = runWorkload(AppId::Swap, GetParam(),
                                        TickingMode::Reference);
    const RunSnapshot skip = runWorkload(AppId::Swap, GetParam(),
                                         TickingMode::SkipAhead);
    expectSameSnapshot(ref, skip);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SkipAheadDifferential,
    ::testing::ValuesIn(kAllConfigs.begin(), kAllConfigs.end()),
    [](const ::testing::TestParamInfo<Config> &info) {
        return std::string(configName(info.param));
    });

class FullWpqDifferential : public ::testing::TestWithParam<Config>
{
};

TEST_P(FullWpqDifferential, RetryWindowsAreSkippedAndReplayed)
{
    // A retry the full WPQ refuses waits for the next media-write
    // completion; skip-ahead jumps that window and replays its
    // refusals, so nvm.buffer_full_rejects is in the compared wire.
    for (const AppId app : {AppId::Update, AppId::Swap, AppId::Btree}) {
        SCOPED_TRACE(appName(app));
        const RunSnapshot ref = runWorkload(
            app, GetParam(), TickingMode::Reference, tinyWpq());
        const RunSnapshot skip = runWorkload(
            app, GetParam(), TickingMode::SkipAhead, tinyWpq());
        expectSameSnapshot(ref, skip);
        EXPECT_GT(skip.result.nvm.bufferFullRejects, 0u);
        EXPECT_LT(skip.profile.hostTicks * 4, ref.profile.hostTicks);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FullWpqDifferential,
    ::testing::ValuesIn(kAllConfigs.begin(), kAllConfigs.end()),
    [](const ::testing::TestParamInfo<Config> &info) {
        return std::string(configName(info.param));
    });

TEST(SkipAhead, ProfileSeparatesTheModes)
{
    const RunSnapshot ref = runWorkload(AppId::Update, Config::B,
                                        TickingMode::Reference);
    const RunSnapshot skip = runWorkload(AppId::Update, Config::B,
                                         TickingMode::SkipAhead);

    EXPECT_TRUE(ref.profile.referenceTicking);
    EXPECT_EQ(ref.profile.skipJumps, 0u);
    EXPECT_EQ(ref.profile.cyclesSkipped, 0u);
    EXPECT_EQ(ref.profile.hostTicks, ref.result.cycles);

    EXPECT_FALSE(skip.profile.referenceTicking);
    EXPECT_GT(skip.profile.skipJumps, 0u);
    EXPECT_GT(skip.profile.cyclesSkipped, 0u);
    // Every simulated cycle is either ticked or skipped.
    EXPECT_EQ(skip.profile.hostTicks + skip.profile.cyclesSkipped,
              skip.profile.cyclesSimulated);
    EXPECT_EQ(skip.profile.cyclesSimulated, skip.result.cycles);

    // The sampled phase estimates are positive and, with the sampled
    // skip time, fit inside the run's wall time (the fig9 harness's
    // setup and op phases are one run, scaled once).
    for (const HostProfile *p : {&ref.profile, &skip.profile}) {
        const std::uint64_t phases =
            p->memNanos + p->fetchNanos + p->issueNanos + p->wbNanos;
        EXPECT_GT(phases, 0u);
        EXPECT_LE(phases + p->skipNanos, p->wallNanos);
    }
}

/**
 * @p n persist rounds (store, DC CVAP, DSB SY) over 64 NVM lines from
 * @p base: live ticks plus fence-bound dead windows to skip.
 */
Trace
persistLoop(int n, Addr base)
{
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < n; ++i) {
        const Addr a = base + static_cast<Addr>(i % 64) * 64;
        b.str(2, 1, a, static_cast<std::uint64_t>(i));
        b.cvap(1, a);
        b.dsbSy();
    }
    return t;
}

/** NVM region @p i, 64 KiB apart. */
Addr
nvmRegion(unsigned i)
{
    return MemSystemParams{}.map.nvmBase() + 0x10000 * (i + 1);
}

TEST(SkipAhead, ProfileTimesEveryCore)
{
    // Core 0 runs nothing, so every pipeline phase the profile holds
    // belongs to cores 1..3.
    std::vector<Trace> traces(4);
    for (unsigned c = 1; c < 4; ++c)
        traces[c] = persistLoop(64, nvmRegion(c));
    Session s(SimConfig::paper(Config::B).withCoreCount(4));
    const SimResult r = s.run(RunRequest::perCore(traces));
    ASSERT_TRUE(r.ok());
    const HostProfile &p = r.profile;
    EXPECT_GT(p.hostTicks, kPhaseSamplePeriod);
    EXPECT_GT(p.fetchNanos, 0u);
    EXPECT_GT(p.issueNanos, 0u);
    EXPECT_GT(p.wbNanos, 0u);
    EXPECT_GT(p.memNanos, 0u);
    EXPECT_EQ(p.hostTicks + p.cyclesSkipped, p.cyclesSimulated);
    EXPECT_EQ(p.cyclesSimulated, r.cycles());
}

TEST(SkipAhead, PhaseEstimatesScaleOncePerRun)
{
    // A machine runs once, so the only profile that sees two runs is
    // one shared across them (as a sweep total is): here two one-core
    // groups hand the same profile to run.  Each run scales its own
    // sample once, so the phase and skip estimates never exceed the
    // accumulated wall time.
    HostProfile prof;
    MemSystem mem_a;
    MemSystem mem_b;
    OoOCore a(CoreParams{}, mem_a);
    OoOCore b(CoreParams{}, mem_b);
    const Trace setup = persistLoop(96, nvmRegion(0));
    const Trace ops = persistLoop(160, nvmRegion(1));
    const Cycle cycles_a = CoreGroup({&a}).run({&setup}, &prof);
    const HostProfile first = prof;
    const Cycle cycles_b = CoreGroup({&b}).run({&ops}, &prof);
    ASSERT_FALSE(a.simError());
    ASSERT_FALSE(b.simError());

    EXPECT_EQ(prof.hostTicks + prof.cyclesSkipped, cycles_a + cycles_b);
    const auto phases = [](const HostProfile &p) {
        return p.memNanos + p.fetchNanos + p.issueNanos + p.wbNanos;
    };
    EXPECT_GT(phases(first), 0u);
    EXPECT_LE(phases(first) + first.skipNanos, first.wallNanos);
    // The second run adds its own estimate on top.
    EXPECT_GT(phases(prof), phases(first));
    EXPECT_LE(phases(prof) + prof.skipNanos, prof.wallNanos);
}

/** CoreParams with the ticking mode pinned. */
CoreParams
pinned(TickingMode mode)
{
    CoreParams p;
    p.ticking = mode;
    return p;
}

TEST(SkipAhead, WaitAllKeysWakesAtTheSameCycle)
{
    // Regression: WAIT_ALL_KEYS parks the frontend until every EDE
    // key resolves; a skip target that overshoots the last producer's
    // completion would wake the consumer late (or trip the watchdog).
    // Both producers persist to NVM, so the dead window between the
    // waits is exactly the kind skip-ahead jumps.
    std::array<std::vector<Cycle>, 2> done;
    std::array<Cycle, 2> cycles{};
    const std::array<TickingMode, 2> modes{TickingMode::Reference,
                                           TickingMode::SkipAhead};
    for (std::size_t m = 0; m < modes.size(); ++m) {
        MiniSim sim(EnforceMode::IQ, pinned(modes[m]));
        Trace t;
        TraceBuilder b(t);
        b.str(2, 3, MiniSim::dramLine(0), 7);
        b.cvap(2, sim.nvmLine(0), {1, 0});
        b.cvap(3, sim.nvmLine(1), {7, 0});
        b.waitAllKeys();
        b.str(4, 5, MiniSim::dramLine(0), 1);
        cycles[m] = sim.run(t);
        done[m] = sim.core->completionCycles();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    ASSERT_EQ(done[0].size(), done[1].size());
    for (std::size_t i = 0; i < done[0].size(); ++i)
        EXPECT_EQ(done[0][i], done[1][i]) << "trace index " << i;
}

const std::array<TickingMode, 2> kModes{TickingMode::Reference,
                                        TickingMode::SkipAhead};

TEST(SkipAhead, CoreGroupReplaysFullWpqRetriesOncePerJump)
{
    // Two cores share the hierarchy, so a jump replays the L3's
    // refused retry once, not once per core.
    const std::vector<Trace> traces{persistLoop(160, nvmRegion(0)),
                                    persistLoop(160, nvmRegion(1))};
    std::array<SimResult, 2> r;
    for (std::size_t m = 0; m < kModes.size(); ++m) {
        Session s(SimConfig::paper(Config::B)
                      .withCoreCount(2)
                      .withMem(tinyWpq())
                      .withTicking(kModes[m]));
        r[m] = s.run(RunRequest::perCore(traces));
        ASSERT_TRUE(r[m].ok());
    }
    expectSameWire(exp::toWire("run", r[0].stats),
                   exp::toWire("run", r[1].stats));
    EXPECT_GT(r[1].stats.nvm.bufferFullRejects, 0u);
    EXPECT_LT(r[1].profile.hostTicks * 4, r[0].profile.hostTicks);
}

TEST(SkipAhead, AcceptFaultHookKeepsEveryRetry)
{
    // A fault hook may answer each attempt differently -- this one
    // refuses every fiftieth, so refused retries of the full WPQ wait
    // on it -- and while one is installed the NVM defers no retry:
    // skip-ahead must make every attempt reference ticking makes.
    std::array<SimResult, 2> r;
    for (std::size_t m = 0; m < kModes.size(); ++m) {
        Session s(SimConfig::paper(Config::B)
                      .withMem(tinyWpq())
                      .withTicking(kModes[m]));
        s.system().mem().controller().nvm().setAcceptFaultHook(
            [calls = 0u](const MemReq &, Cycle) mutable {
                return ++calls % 50 == 0;
            });
        r[m] = s.run(RunRequest::of(persistLoop(160, nvmRegion(0))));
        ASSERT_TRUE(r[m].ok());
    }
    expectSameWire(exp::toWire("run", r[0].stats),
                   exp::toWire("run", r[1].stats));
    EXPECT_GT(r[1].stats.nvm.transientRejects, 0u);
    EXPECT_GT(r[1].stats.nvm.bufferFullRejects, 0u);
}

// ---------------------------------------------------------------------
// Sleeping cores (DESIGN.md section 10 item 6): under skip-ahead an
// idle core skips its pipeline until a wake source fires.  Each test
// below drives one wake source, or a stop while a core sleeps, on two
// cores and requires reference ticking's whole result.
// ---------------------------------------------------------------------

/** @p n independent moves: a core that progresses every cycle. */
Trace
busyLoop(int n)
{
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < n; ++i)
        b.movImm(static_cast<RegIndex>(8 + i % 16), i);
    return t;
}

/**
 * Run @p traces on @p cfg under both tickers, @p prepare applied to
 * each System first; @return {reference, skip-ahead}.
 */
std::array<SimResult, 2>
runBothTickers(SimConfig cfg, const std::vector<Trace> &traces,
               const std::function<void(System &)> &prepare = {})
{
    std::array<SimResult, 2> r;
    for (std::size_t m = 0; m < kModes.size(); ++m) {
        Session s(cfg.withTicking(kModes[m]));
        if (prepare)
            prepare(s.system());
        r[m] = s.run(RunRequest::perCore(traces));
    }
    return r;
}

/** The same stop (if any) and the same wire form. */
void
expectSameRun(const std::array<SimResult, 2> &r)
{
    EXPECT_EQ(r[0].error.kind, r[1].error.kind)
        << r[1].error.describe();
    EXPECT_EQ(r[0].error.cycle, r[1].error.cycle);
    expectSameWire(exp::toWire("run", r[0].stats),
                   exp::toWire("run", r[1].stats));
}

TEST(SleepingCores, WaitReleasedByAHigherIndexCoreWakes)
{
    // Core 0 parks WAIT_KEY 1 behind core 1's key-1 persists.  Core 1
    // ticks after core 0, so core 0 sees an exit only on its own next
    // tick -- and must be awake for it, even when it ticked idle in
    // the very cycle of the exit (woken by core 1's previous exit one
    // cycle earlier).
    std::vector<Trace> traces(2);
    {
        TraceBuilder b(traces[0]);
        for (int i = 0; i < 32; ++i) {
            b.ldr(3, 1, MiniSim::dramLine(i));
            b.waitKey(1);
            b.str(4, 1, MiniSim::dramLine(64 + i), i);
        }
    }
    {
        TraceBuilder b(traces[1]);
        for (int i = 0; i < 32; ++i) {
            const Addr a = nvmRegion(1) + static_cast<Addr>(i) * 128;
            b.str(2, 1, a, i);
            b.str(2, 1, a + 64, i);
            b.cvap(1, a, {1, 0});
            b.cvap(1, a + 64, {1, 0});
            b.dsbSy();
        }
    }
    const auto r = runBothTickers(
        SimConfig::paper(Config::IQ).withCoreCount(2), traces);
    ASSERT_TRUE(r[1].ok()) << r[1].error.describe();
    expectSameRun(r);
}

TEST(SleepingCores, DegradeReleaseWakesItsCore)
{
    // Core 1 wedges on a forged forward EDE link (the EDK detector's
    // gadget) and sleeps; its analyzer's degrade release must wake it
    // on a cycle core 0 keeps live, and, with core 0 idle, on the
    // landing cycle of a jump.
    for (const int busy : {3000, 0}) {
        SCOPED_TRACE(busy ? "core 0 busy" : "core 0 idle");
        std::vector<Trace> traces{busyLoop(busy), Trace{}};
        TraceBuilder b(traces[1]);
        for (int i = 0; i < 3; ++i)
            b.str(8, 2, MiniSim::dramLine(i), i);
        b.movImm(10, 3);
        b.mul(11, 10, 10);
        b.mul(12, 11, 11);
        const std::size_t x = b.str(12, 2, nvmRegion(1), 1, 0, {4, 0});
        b.str(13, 2, MiniSim::dramLine(3), 2, 0, {0, 4});
        for (int i = 0; i < 3; ++i)
            b.str(14, 2, MiniSim::dramLine(4 + i), i);
        const auto r = runBothTickers(
            SimConfig::paper(Config::IQ)
                .withCoreCount(2)
                .withEdkRecovery(EdkRecoveryMode::Degrade)
                .withEdkStallCycles(500)
                .withWatchdog(100'000),
            traces,
            [x](System &sys) { sys.core(1).corruptEdeLink(x, 1); });
        ASSERT_TRUE(r[1].ok()) << r[1].error.describe();
        EXPECT_GE(r[1].stats.perCore[1].stats.edkFencesSynthesized, 1u);
        expectSameRun(r);
    }
}

TEST(SleepingCores, FetchRedirectWakesItsCore)
{
    // Each mispredict leaves core 1 with an empty pipeline until the
    // refill penalty elapses.  Core 0 keeps every cycle live, so no
    // machine-wide jump lands on the resume cycle: core 1's own timed
    // event must wake it.
    std::vector<Trace> traces{busyLoop(3000), Trace{}};
    TraceBuilder b(traces[1]);
    for (int i = 0; i < 8; ++i) {
        // The predictor starts weakly taken: not-taken mispredicts.
        b.branchCond("redirect" + std::to_string(i), 1, 2, false);
        b.alu(3, 3, kNoReg, 1);
    }
    const auto r = runBothTickers(
        SimConfig::paper(Config::B).withCoreCount(2), traces);
    ASSERT_TRUE(r[1].ok()) << r[1].error.describe();
    EXPECT_GE(r[1].stats.perCore[1].stats.squashes, 8u);
    expectSameRun(r);
}

TEST(SleepingCores, RefusedLoadKeepsItsCoreAwake)
{
    // Behind full MSHRs, a one-entry L1D input queue refuses core 1's
    // loads.  Reference ticking retries each one every cycle and
    // counts every refusal, so a tick whose only act was a refused
    // load must not sleep.
    MemSystemParams mem;
    mem.l1d.inputQueue = 1;
    std::vector<Trace> traces{busyLoop(3000), Trace{}};
    TraceBuilder b(traces[1]);
    for (int i = 0; i < 16; ++i)
        b.ldr(static_cast<RegIndex>(8 + i % 8), 1, MiniSim::dramLine(i));
    const auto r = runBothTickers(
        SimConfig::paper(Config::B).withCoreCount(2).withMem(mem), traces);
    ASSERT_TRUE(r[1].ok()) << r[1].error.describe();
    EXPECT_GT(r[1].stats.perCore[1].l1d.rejects, 0u);
    expectSameRun(r);
}

TEST(SleepingCores, StopReplaysTheSleepersCycles)
{
    // A full WPQ holds core 1's persist fences for whole media
    // writes, so it sleeps most of its run; the watchdog and the
    // maxCycles backstop each stop the group while it sleeps, with
    // core 0 busy (a live-cycle stop) and idle (a stop on a jump's
    // landing cycle).  Core 1 replays its slept cycles first.
    for (const bool watchdog : {true, false}) {
        for (const int busy : {3000, 0}) {
            SCOPED_TRACE(std::string(watchdog ? "watchdog" : "maxCycles") +
                         (busy ? ", core 0 busy" : ", core 0 idle"));
            SimConfig cfg = SimConfig::paper(Config::B)
                                .withCoreCount(2)
                                .withMem(tinyWpq());
            if (watchdog)
                cfg.withWatchdog(1'000);
            else
                cfg.core().maxCycles = 4'000;
            const auto r = runBothTickers(
                cfg, {busyLoop(busy), persistLoop(160, nvmRegion(1))});
            EXPECT_EQ(r[1].error.kind,
                      watchdog ? SimErrorKind::WatchdogNoProgress
                               : SimErrorKind::MaxCyclesExceeded);
            expectSameRun(r);
        }
    }
}

} // namespace
} // namespace ede
