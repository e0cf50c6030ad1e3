/**
 * @file
 * Differential validation of the skip-ahead scheduler.
 *
 * The skip-ahead loops (CoreGroup::run and the legacy OoOCore::run)
 * jump dead windows using component next-event hints; the reference
 * loop ticks every cycle.  The contract is bit-identical *simulated*
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

#include <algorithm>
#include <array>
#include <string>

#include "apps/harness.hh"
#include "exp/fields.hh"
#include "pipeline/run_loop.hh"
#include "sim_test_util.hh"

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

/**
 * Equal wire forms -- every counter, distribution and per-core record
 * the result cache would store -- reporting where they first differ.
 */
void
expectSameWire(const std::string &ref, const std::string &skip)
{
    if (ref == skip)
        return;
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(ref.begin(), ref.end(), skip.begin(), skip.end())
            .first - ref.begin());
    const std::size_t from = at < 80 ? 0 : at - 80;
    ADD_FAILURE() << "wire forms differ at offset " << at
                  << "\n  reference:  ..." << ref.substr(from, 120)
                  << "\n  skip-ahead: ..." << skip.substr(from, 120);
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

    // The sampled phase estimates are positive and, with the exact
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
    // A System is single-shot, so the only profile that sees two runs
    // is one shared across them (as a sweep total is): here one run
    // through the legacy loop and one through CoreGroup.  Each run
    // scales its own sample once, so the phase estimates plus the
    // exact skip time never exceed the accumulated wall time.
    HostProfile prof;
    MemSystem mem_a;
    MemSystem mem_b;
    OoOCore a(CoreParams{}, mem_a);
    OoOCore b(CoreParams{}, mem_b);
    a.setProfile(&prof);
    b.setProfile(&prof);
    const Trace setup = persistLoop(96, nvmRegion(0));
    const Trace ops = persistLoop(160, nvmRegion(1));
    const Cycle cycles_a = a.run(setup);
    const HostProfile first = prof;
    const Cycle cycles_b = CoreGroup({&b}).run({&ops});
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

/** A raw core's run, the hierarchy's counters included, as wire. */
std::string
machineWire(const OoOCore &core, const MemSystem &mem)
{
    const NvmDevice &nvm = mem.controller().nvm();
    return exp::toWire("core", core.stats()) +
           exp::toWire("wb", core.wbStats()) +
           exp::toWire("nvm", nvm.stats()) +
           exp::toWire("occupancy", nvm.occupancyDist()) +
           exp::toWire("l1d", mem.l1d().stats()) +
           exp::toWire("l2", mem.l2().stats()) +
           exp::toWire("l3", mem.l3().stats()) +
           exp::toWire("dram", mem.controller().dram().stats());
}

TEST(SkipAhead, LegacyLoopReplaysFullWpqRetries)
{
    // OoOCore::run, the raw single-core loop, keeps the 4-slot WPQ
    // full with fenced cleans.
    const Trace t = persistLoop(160, nvmRegion(0));
    std::array<std::string, 2> wire;
    std::array<std::uint64_t, 2> ticks{};
    for (std::size_t m = 0; m < kModes.size(); ++m) {
        HostProfile prof;
        MemSystem mem(tinyWpq());
        OoOCore core(pinned(kModes[m]), mem);
        core.setProfile(&prof);
        core.run(t);
        ASSERT_FALSE(core.simError());
        EXPECT_GT(mem.controller().nvm().stats().bufferFullRejects, 0u);
        wire[m] = machineWire(core, mem);
        ticks[m] = prof.hostTicks;
    }
    expectSameWire(wire[0], wire[1]);
    EXPECT_LT(ticks[1] * 4, ticks[0]);
}

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

} // namespace
} // namespace ede
