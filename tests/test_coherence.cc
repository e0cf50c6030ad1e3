/**
 * @file
 * Multi-core coherence and cross-core EDK ordering tests.
 *
 * The classic litmus shapes (MP, SB, LB) rebuilt as *timing*
 * litmus tests: traces are functionally pre-resolved, so the tests
 * assert the machine-level guarantees -- snoop traffic at the
 * coherence point, persist-event order at the NVM, WAIT gating
 * across cores -- rather than racy load values.  Every multi-core
 * shape is run under both the skip-ahead and the reference tickers,
 * which must agree cycle-for-cycle.
 */

#include <gtest/gtest.h>

#include <string>

#include "apps/concurrent.hh"
#include "exp/fields.hh"
#include "mem/mem_system.hh"
#include "sim/session.hh"
#include "trace/builder.hh"
#include "wire_test_util.hh"

namespace ede {
namespace {

constexpr Addr kLineMask = ~Addr{63};

/** n-deep dependent ALU chain: delays everything after it. */
void
filler(TraceBuilder &b, int n)
{
    for (int i = 0; i < n; ++i)
        b.alu(5, 5, kNoReg, 1);
}

/** Index of the first persist event touching @p addr's line. */
std::size_t
persistIndexOf(const System &sys, Addr addr)
{
    const auto &evs = sys.persistEvents();
    for (std::size_t i = 0; i < evs.size(); ++i) {
        if ((evs[i].addr & kLineMask) == (addr & kLineMask))
            return i;
    }
    ADD_FAILURE() << "no persist event for line 0x" << std::hex
                  << (addr & kLineMask);
    return evs.size();
}

Addr
nvmLine(int i)
{
    return MemSystemParams{}.map.nvmBase() + 0x40000 +
           static_cast<Addr>(i) * 64;
}

constexpr Addr
dramLine(int i)
{
    return 0x180000 + static_cast<Addr>(i) * 64;
}

// ---------------------------------------------------------------------
// Coherence point: snoop traffic between private L1s.
// ---------------------------------------------------------------------

TEST(Coherence, StoreInvalidatesPeerCopy)
{
    // Core 0 dirties line X in its L1; core 1 writes the same line
    // much later, which must snoop-invalidate core 0's copy.
    std::vector<Trace> traces(2);
    {
        TraceBuilder b(traces[0]);
        b.str(2, 1, dramLine(0), 0x11);
    }
    {
        TraceBuilder b(traces[1]);
        filler(b, 400);  // Let core 0's store land in its L1 first.
        b.str(2, 1, dramLine(0), 0x22);
    }
    Session s(SimConfig::paper(Config::B).withCoreCount(2));
    const SimResult r = s.run(RunRequest::perCore(traces));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.stats.coherence.snoops, 1u);
    EXPECT_GE(r.stats.coherence.invalidations, 1u);
    EXPECT_GE(s.system().mem().l1d(0).stats().snoopInvalidations, 1u);
    EXPECT_EQ(s.system().mem().l1d(1).stats().snoopInvalidations, 0u);
}

TEST(Coherence, LoadDowngradesDirtyPeerAndHandsOff)
{
    // Core 1 reads a line core 0 holds dirty: the peer copy is
    // downgraded and the dirty data lands at the shared L2 so the
    // reader's fill observes it (a modelled cache-to-cache transfer).
    std::vector<Trace> traces(2);
    {
        TraceBuilder b(traces[0]);
        b.str(2, 1, dramLine(1), 0x33);
    }
    {
        TraceBuilder b(traces[1]);
        filler(b, 400);
        b.ldr(3, 1, dramLine(1));
    }
    Session s(SimConfig::paper(Config::B).withCoreCount(2));
    const SimResult r = s.run(RunRequest::perCore(traces));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.stats.coherence.downgrades, 1u);
    EXPECT_GE(r.stats.coherence.dirtyHandoffs, 1u);
    EXPECT_GE(s.system().mem().l1d(0).stats().snoopDowngrades, 1u);
}

TEST(Coherence, SingleCoreHasNoCoherenceTraffic)
{
    // The N=1 machine must execute zero snoop code: the coherence
    // counters stay identically zero.
    Trace t;
    {
        TraceBuilder b(t);
        b.str(2, 1, dramLine(2), 0x44);
        b.ldr(3, 1, dramLine(2));
        b.ldr(4, 1, dramLine(3));
    }
    Session s(SimConfig::paper(Config::B));
    const SimResult r = s.run(RunRequest::of(t));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats.coreCount, 1);
    ASSERT_EQ(r.stats.perCore.size(), 1u);
    EXPECT_EQ(r.stats.coherence.snoops, 0u);
    EXPECT_EQ(r.stats.coherence.invalidations, 0u);
    EXPECT_EQ(r.stats.coherence.downgrades, 0u);
    EXPECT_EQ(r.stats.coherence.dirtyHandoffs, 0u);
}

// ---------------------------------------------------------------------
// MP (message passing): data must persist before the flag, under the
// fence lowering (B) and under both EDE realizations (IQ, WB).
// ---------------------------------------------------------------------

std::vector<Trace>
mpTraces(Config cfg)
{
    const Addr data = nvmLine(0);
    const Addr flag = nvmLine(1);
    std::vector<Trace> traces(2);
    {
        TraceBuilder b(traces[0]);
        b.str(2, 1, data, 0xd0);
        if (cfg == Config::B) {
            b.cvap(1, data);
            b.dsbSy();
            b.str(3, 1, flag, 1);
        } else {
            // IQ / WB: the persist defines key 1, the publishing
            // store consumes it -- no fence.
            b.cvap(1, data, {1, 0});
            b.str(3, 1, flag, 1, 0, {0, 1});
        }
        b.cvap(1, flag);
    }
    {
        TraceBuilder b(traces[1]);
        b.ldr(3, 1, flag);
        b.ldr(4, 1, data);
    }
    return traces;
}

class MpLitmus : public ::testing::TestWithParam<Config> {};

TEST_P(MpLitmus, DataPersistsBeforeFlag)
{
    Session s(SimConfig::paper(GetParam()).withCoreCount(2));
    const SimResult r = s.run(RunRequest::perCore(mpTraces(GetParam())));
    ASSERT_TRUE(r.ok());
    const std::size_t data_at = persistIndexOf(s.system(), nvmLine(0));
    const std::size_t flag_at = persistIndexOf(s.system(), nvmLine(1));
    EXPECT_LT(data_at, flag_at);
    // Both persists came from core 0.
    EXPECT_EQ(s.system().persistEvents().at(data_at).core, 0u);
    EXPECT_EQ(s.system().persistEvents().at(flag_at).core, 0u);
}

TEST_P(MpLitmus, TickingModesAgree)
{
    Session skip(SimConfig::paper(GetParam())
                     .withCoreCount(2)
                     .withTicking(TickingMode::SkipAhead));
    Session ref(SimConfig::paper(GetParam())
                    .withCoreCount(2)
                    .withTicking(TickingMode::Reference));
    const SimResult a = skip.run(RunRequest::perCore(mpTraces(GetParam())));
    const SimResult b = ref.run(RunRequest::perCore(mpTraces(GetParam())));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.stats.perCore.size(), b.stats.perCore.size());
    for (std::size_t i = 0; i < a.stats.perCore.size(); ++i) {
        EXPECT_EQ(a.stats.perCore[i].stats.cycles,
                  b.stats.perCore[i].stats.cycles);
        EXPECT_EQ(a.stats.perCore[i].stats.retired,
                  b.stats.perCore[i].stats.retired);
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, MpLitmus,
                         ::testing::Values(Config::B, Config::IQ,
                                           Config::WB),
                         [](const auto &info) {
                             return std::string(
                                 configName(info.param));
                         });

// ---------------------------------------------------------------------
// Cross-core WAIT_KEY: a waiter on core 1 drains core 0's in-flight
// keyed persists through the cross-core counter aggregation.
// ---------------------------------------------------------------------

std::vector<Trace>
waitKeyTraces(bool wait)
{
    std::vector<Trace> traces(2);
    {
        TraceBuilder b(traces[0]);
        b.str(2, 1, nvmLine(2), 0xaa);
        b.cvap(1, nvmLine(2), {1, 0});  // Defines key 1.
    }
    {
        TraceBuilder b(traces[1]);
        // A few cycles so core 0's keyed persist is in flight (it
        // enters the tracked window at dispatch, cycles earlier).
        filler(b, 6);
        if (wait)
            b.waitKey(1);
        b.str(3, 1, nvmLine(3), 0xbb);
        b.cvap(1, nvmLine(3));
    }
    return traces;
}

TEST(CrossCoreWait, WaitKeyDrainsRemoteKeyedPersist)
{
    Session s(SimConfig::paper(Config::IQ).withCoreCount(2));
    const SimResult r = s.run(RunRequest::perCore(waitKeyTraces(/*wait=*/true)));
    ASSERT_TRUE(r.ok());
    // Core 0's keyed persist reaches the persistence domain before
    // core 1's dependent publish.
    const std::size_t remote = persistIndexOf(s.system(), nvmLine(2));
    const std::size_t local = persistIndexOf(s.system(), nvmLine(3));
    EXPECT_LT(remote, local);
    EXPECT_EQ(s.system().persistEvents().at(remote).core, 0u);
    EXPECT_EQ(s.system().persistEvents().at(local).core, 1u);
}

TEST(CrossCoreWait, WaitKeyActuallyGates)
{
    // The same shape without the WAIT finishes core 1 strictly
    // earlier: the wait really does stall on the remote counter.
    Session waited(SimConfig::paper(Config::IQ).withCoreCount(2));
    Session free_run(SimConfig::paper(Config::IQ).withCoreCount(2));
    const SimResult w = waited.run(RunRequest::perCore(waitKeyTraces(/*wait=*/true)));
    const SimResult f = free_run.run(RunRequest::perCore(waitKeyTraces(/*wait=*/false)));
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(f.ok());
    EXPECT_GT(w.stats.perCore.at(1).stats.cycles,
              f.stats.perCore.at(1).stats.cycles);
}

TEST(CrossCoreWait, TickingModesAgree)
{
    Session skip(SimConfig::paper(Config::IQ)
                     .withCoreCount(2)
                     .withTicking(TickingMode::SkipAhead));
    Session ref(SimConfig::paper(Config::IQ)
                    .withCoreCount(2)
                    .withTicking(TickingMode::Reference));
    const SimResult a = skip.run(RunRequest::perCore(waitKeyTraces(/*wait=*/true)));
    const SimResult b = ref.run(RunRequest::perCore(waitKeyTraces(/*wait=*/true)));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.stats.perCore.at(0).stats.cycles,
              b.stats.perCore.at(0).stats.cycles);
    EXPECT_EQ(a.stats.perCore.at(1).stats.cycles,
              b.stats.perCore.at(1).stats.cycles);
}

// ---------------------------------------------------------------------
// SB / LB shapes: the classic store-buffering and load-buffering
// interleavings complete without deadlock, generate the expected
// snoop traffic, and tick identically under both schedulers.
// ---------------------------------------------------------------------

std::vector<Trace>
sbTraces()
{
    std::vector<Trace> traces(2);
    for (int c = 0; c < 2; ++c) {
        TraceBuilder b(traces[c]);
        b.str(2, 1, dramLine(4 + c), 1 + c);
        filler(b, 400);  // Let the peer's store land before reading.
        b.ldr(3, 1, dramLine(4 + (1 - c)));
    }
    return traces;
}

std::vector<Trace>
lbTraces()
{
    std::vector<Trace> traces(2);
    for (int c = 0; c < 2; ++c) {
        TraceBuilder b(traces[c]);
        b.ldr(3, 1, dramLine(6 + (1 - c)));
        b.str(2, 1, dramLine(6 + c), 1 + c);
    }
    return traces;
}

TEST(Coherence, SbBothReadersSeePeerLines)
{
    Session s(SimConfig::paper(Config::B).withCoreCount(2));
    const SimResult r = s.run(RunRequest::perCore(sbTraces()));
    ASSERT_TRUE(r.ok());
    // Each reader pulled the peer's dirty line across the coherence
    // point.
    EXPECT_GE(r.stats.coherence.downgrades, 2u);
    EXPECT_GE(r.stats.coherence.dirtyHandoffs, 2u);
}

TEST(Coherence, SbAndLbTickingModesAgree)
{
    for (bool sb : {true, false}) {
        Session skip(SimConfig::paper(Config::B)
                         .withCoreCount(2)
                         .withTicking(TickingMode::SkipAhead));
        Session ref(SimConfig::paper(Config::B)
                        .withCoreCount(2)
                        .withTicking(TickingMode::Reference));
        const SimResult a = skip.run(RunRequest::perCore(sb ? sbTraces() : lbTraces()));
        const SimResult b = ref.run(RunRequest::perCore(sb ? sbTraces() : lbTraces()));
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a.stats.cycles, b.stats.cycles)
            << (sb ? "SB" : "LB");
        for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(a.stats.perCore[i].stats.cycles,
                      b.stats.perCore[i].stats.cycles);
        }
    }
}

// ---------------------------------------------------------------------
// The concurrent kernels, small: ticking parity on a real workload.
// ---------------------------------------------------------------------

TEST(Coherence, ConcurrentKernelsTickingParity)
{
    // Every kernel under every configuration on two cores, whole
    // results compared.  Larger machines stay out: there the tickers
    // still disagree on some cells through the NVM read hint
    // (ROADMAP item 5).
    for (ConcApp app : kAllConcApps) {
        for (Config cfg : kAllConfigs) {
            SCOPED_TRACE(std::string(concAppName(app)) + "/" +
                         std::string(configName(cfg)));
            ConcParams cp;
            cp.cfg = cfg;
            cp.cores = 2;
            cp.opsPerCore = 24;
            const std::vector<Trace> traces =
                buildConcurrentTraces(app, cp);
            Session skip(SimConfig::paper(cfg)
                             .withCoreCount(2)
                             .withTicking(TickingMode::SkipAhead));
            Session ref(SimConfig::paper(cfg)
                            .withCoreCount(2)
                            .withTicking(TickingMode::Reference));
            const SimResult a = skip.run(RunRequest::perCore(traces));
            const SimResult b = ref.run(RunRequest::perCore(traces));
            ASSERT_TRUE(a.ok());
            ASSERT_TRUE(b.ok());
            expectSameWire(exp::toWire("run", b.stats),
                           exp::toWire("run", a.stats));
        }
    }
}

// ---------------------------------------------------------------------
// Config plumbing: validation and the per-core result surface.
// ---------------------------------------------------------------------

TEST(MultiCoreConfig, CoreCountValidation)
{
    EXPECT_EQ(SimConfig::paper(Config::B)
                  .withCoreCount(0)
                  .validate()
                  .countOf(SimConfigCheck::CoreCountInvalid),
              1u);
    EXPECT_EQ(SimConfig::paper(Config::B)
                  .withCoreCount(65)
                  .validate()
                  .countOf(SimConfigCheck::CoreCountInvalid),
              1u);
    EXPECT_EQ(SimConfig::paper(Config::B)
                  .withCoreCount(8)
                  .validate()
                  .countOf(SimConfigCheck::CoreCountInvalid),
              0u);
}

TEST(MultiCoreConfig, PerCoreResultSurface)
{
    Session s(SimConfig::paper(Config::B).withCoreCount(2));
    const SimResult r = s.run(RunRequest::perCore(mpTraces(Config::B)));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats.coreCount, 2);
    ASSERT_EQ(r.stats.perCore.size(), 2u);
    EXPECT_EQ(r.stats.perCore[0].core, 0u);
    EXPECT_EQ(r.stats.perCore[1].core, 1u);
    // The legacy scalar fields alias core 0's breakdown, and the
    // machine run length is the slowest core.
    EXPECT_EQ(r.stats.core.cycles, r.stats.perCore[0].stats.cycles);
    EXPECT_EQ(r.stats.cycles,
              std::max(r.stats.perCore[0].stats.cycles,
                       r.stats.perCore[1].stats.cycles));
}

} // namespace
} // namespace ede
