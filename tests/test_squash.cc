/**
 * @file
 * Squash-recovery tests: branch mispredictions must restore the
 * register map, the speculative EDM (Section V-A1) and every
 * scheduling structure, across adversarial placements of EDE
 * instructions, fences and memory operations.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/random.hh"
#include "exp/fields.hh"
#include "sim_test_util.hh"

namespace ede {
namespace {

/** A conditional branch the bimodal predictor gets wrong (taken
 *  table initializes weakly-taken, so not-taken mispredicts). */
std::size_t
mispredicting(TraceBuilder &b, const std::string &site)
{
    return b.branchCond(site, 1, 2, false);
}

TEST(Squash, RegisterMapRecovers)
{
    // x5 is written before the branch and again after it; the
    // post-squash re-dispatch must rebuild the dependence on the
    // surviving producer.
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    b.movImm(5, 7);
    mispredicting(b, "s1");
    b.alu(5, 5, kNoReg, 1);          // Depends on the mov.
    const std::size_t st = b.str(5, 6, MiniSim::dramLine(0), 8);
    sim.run(t);
    EXPECT_GE(sim.core->stats().squashes, 1u);
    EXPECT_EQ(sim.core->stats().retired, t.size());
    EXPECT_EQ(sim.image.read<std::uint64_t>(MiniSim::dramLine(0)), 8u);
    (void)st;
}

TEST(Squash, BackToBackMispredicts)
{
    MiniSim sim;
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 6; ++i) {
        mispredicting(b, "b" + std::to_string(i));
        b.alu(3, 3, kNoReg, 1);
    }
    sim.run(t);
    EXPECT_GE(sim.core->stats().squashes, 3u);
    EXPECT_EQ(sim.core->stats().retired, t.size());
}

TEST(Squash, GapsWiderThanTheRobKeepSeqLookupsExact)
{
    // An uncached NVM load holds the ROB head while 60 mispredicted
    // branches squash and re-dispatch the work behind it.  Squashed
    // seqs are never reused, so the live seqs come to span far more
    // than the 16-entry ROB and two of them share a seq-index entry.
    // The run must still match the historical core exactly, under
    // both tickers.
    const std::array<TickingMode, 2> modes{TickingMode::SkipAhead,
                                           TickingMode::Reference};
    std::array<Cycle, 2> cycles{};
    std::array<std::string, 2> core, wb;
    for (std::size_t m = 0; m < modes.size(); ++m) {
        CoreParams p;
        p.robSize = 16;
        p.iqSize = 8;
        p.ticking = modes[m];
        MiniSim sim(EnforceMode::None, p);
        Trace t;
        TraceBuilder b(t);
        b.ldr(1, 2, sim.nvmLine(0));
        for (int i = 0; i < 60; ++i) {
            b.mul(20, 20, 21);
            b.mul(20, 20, 21);
            b.branchCond("gap" + std::to_string(i), 20, kNoReg, false);
        }
        b.alu(3, 3);
        cycles[m] = sim.run(t);
        const CoreStats &s = sim.core->stats();
        EXPECT_EQ(cycles[m], 1371u);
        EXPECT_EQ(s.dispatched, 689u);
        EXPECT_EQ(s.squashes, 60u);
        EXPECT_EQ(s.retired, t.size());
        EXPECT_EQ(t.size(), 182u);
        core[m] = exp::toWire("core", s);
        wb[m] = exp::toWire("wb", sim.core->wbStats());
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(core[0], core[1]);
    EXPECT_EQ(wb[0], wb[1]);
}

class SquashEdeTest : public ::testing::TestWithParam<EnforceMode>
{
};

TEST_P(SquashEdeTest, ProducerBeforeBranchSurvives)
{
    MiniSim sim(GetParam());
    Trace t;
    TraceBuilder b(t);
    b.str(1, 2, MiniSim::dramLine(0), 0);
    b.dsbSy();
    const std::size_t pr = b.cvap(2, sim.nvmLine(0), {3, 0});
    mispredicting(b, "sq");
    const std::size_t co = b.str(3, 4, MiniSim::dramLine(0), 1, 0,
                                 {0, 3});
    sim.run(t);
    EXPECT_GE(sim.core->stats().squashes, 1u);
    EXPECT_GE(sim.done(co), sim.done(pr));
}

TEST_P(SquashEdeTest, SquashedProducerDoesNotLeakIntoEdm)
{
    // A producer *after* the branch is squashed and re-dispatched;
    // a consumer after it must link to the re-dispatched instance,
    // not the squashed one, and ordering must hold.
    MiniSim sim(GetParam());
    Trace t;
    TraceBuilder b(t);
    b.str(1, 2, MiniSim::dramLine(0), 0);
    b.dsbSy();
    mispredicting(b, "sq2");
    const std::size_t pr = b.cvap(2, sim.nvmLine(0), {2, 0});
    const std::size_t co = b.str(3, 4, MiniSim::dramLine(0), 1, 0,
                                 {0, 2});
    sim.run(t);
    EXPECT_GE(sim.core->stats().squashes, 1u);
    EXPECT_GE(sim.done(co), sim.done(pr));
    // Post-run: every EDM entry has been cleared by completion.
    EXPECT_TRUE(sim.core->edm().spec().empty());
    EXPECT_TRUE(sim.core->edm().nonspec().empty());
}

TEST_P(SquashEdeTest, JoinAcrossSquash)
{
    MiniSim sim(GetParam());
    Trace t;
    TraceBuilder b(t);
    b.str(1, 2, MiniSim::dramLine(0), 0);
    b.dsbSy();
    const std::size_t p1 = b.cvap(2, sim.nvmLine(0), {1, 0});
    mispredicting(b, "sqj");
    const std::size_t p2 = b.cvap(3, sim.nvmLine(1), {2, 0});
    b.join(3, 1, 2);
    const std::size_t co = b.str(4, 5, MiniSim::dramLine(0), 1, 0,
                                 {0, 3});
    sim.run(t);
    EXPECT_GE(sim.done(co), sim.done(p1));
    EXPECT_GE(sim.done(co), sim.done(p2));
}

TEST_P(SquashEdeTest, BackToBackSquashesWithLiveKey)
{
    // Two mispredicts in a row while key 1 has a live in-flight
    // producer, with a second producer defined on the wrong path of
    // each branch.  Both squashes must restore the speculative EDM
    // from non-speculative state plus surviving definitions; the
    // consumer after the second branch must still order after the
    // original producer, and no squashed definition may leak.
    MiniSim sim(GetParam());
    Trace t;
    TraceBuilder b(t);
    b.str(1, 2, MiniSim::dramLine(0), 0);
    b.dsbSy();
    const std::size_t p1 = b.cvap(2, sim.nvmLine(0), {1, 0});
    mispredicting(b, "nest1");
    const std::size_t p2 = b.cvap(3, sim.nvmLine(4), {2, 0});
    mispredicting(b, "nest2");
    const std::size_t c1 = b.str(4, 5, MiniSim::dramLine(1), 1, 0,
                                 {0, 1});
    const std::size_t c2 = b.str(6, 7, MiniSim::dramLine(2), 2, 0,
                                 {0, 2});
    b.waitAllKeys();
    sim.run(t);
    EXPECT_GE(sim.core->stats().squashes, 2u);
    EXPECT_EQ(sim.core->stats().retired, t.size());
    EXPECT_GE(sim.done(c1), sim.done(p1));
    EXPECT_GE(sim.done(c2), sim.done(p2));
    // Every link was cleared by completion; nothing squashed leaked
    // into either EDM copy.
    EXPECT_TRUE(sim.core->edm().spec().empty());
    EXPECT_TRUE(sim.core->edm().nonspec().empty());
}

TEST_P(SquashEdeTest, WaitCountersBalanceAfterSquash)
{
    // Wait counters track retired-but-incomplete instructions; a
    // squashed EDE load must leave them balanced or a later
    // WAIT_ALL_KEYS deadlocks.
    MiniSim sim(GetParam());
    Trace t;
    TraceBuilder b(t);
    b.str(1, 2, MiniSim::dramLine(0), 0);
    b.dsbSy();
    b.cvap(2, sim.nvmLine(0), {1, 0});
    mispredicting(b, "sqw");
    b.ldr(3, 4, MiniSim::dramLine(0), 0, {0, 1}); // Counted load.
    b.waitAllKeys();
    b.str(5, 6, MiniSim::dramLine(0), 2);
    const Cycle cycles = sim.run(t);
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(sim.core->stats().retired, t.size());
}

TEST_P(SquashEdeTest, DsbAcrossSquash)
{
    MiniSim sim(GetParam());
    Trace t;
    TraceBuilder b(t);
    b.cvap(2, sim.nvmLine(0));
    mispredicting(b, "sqd");
    const std::size_t fence = b.dsbSy();
    const std::size_t young = b.alu(3, kZeroReg);
    sim.run(t);
    EXPECT_EQ(sim.core->stats().retired, t.size());
    EXPECT_GE(sim.done(young), sim.done(fence));
}

TEST_P(SquashEdeTest, StressRandomBranchyEdePrograms)
{
    // Randomized mix of producers, consumers, branches (some
    // mispredicted), fences and loads; every run must terminate with
    // all ordering obligations honoured.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        MiniSim sim(GetParam());
        Rng rng(seed * 977);
        Trace t;
        TraceBuilder b(t);
        for (int i = 0; i < 8; ++i)
            b.str(1, 2, MiniSim::dramLine(i), 0);
        b.dsbSy();
        struct Pair { std::size_t p, c; };
        std::vector<Pair> pairs;
        Edk key = 0;
        for (int i = 0; i < 60; ++i) {
            switch (rng.below(6)) {
              case 0: {
                key = static_cast<Edk>(1 + rng.below(15));
                const std::size_t p =
                    b.cvap(2, sim.nvmLine(static_cast<int>(
                                  rng.below(24))), {key, 0});
                const std::size_t c =
                    b.str(3, 4, MiniSim::dramLine(static_cast<int>(
                                    rng.below(8))), i, 0, {0, key});
                pairs.push_back({p, c});
                break;
              }
              case 1:
                b.branchCond("st" + std::to_string(rng.below(4)), 1,
                             2, rng.chance(0.5));
                break;
              case 2:
                b.ldr(5, 6, MiniSim::dramLine(static_cast<int>(
                                rng.below(8))));
                break;
              case 3:
                b.alu(static_cast<RegIndex>(7 + rng.below(4)),
                      kZeroReg);
                break;
              case 4:
                if (rng.chance(0.3))
                    b.waitKey(static_cast<Edk>(1 + rng.below(15)));
                break;
              default:
                b.str(8, 9, MiniSim::dramLine(static_cast<int>(
                                rng.below(8))), i);
                break;
            }
        }
        sim.run(t);
        EXPECT_EQ(sim.core->stats().retired, t.size())
            << "seed " << seed;
        for (const Pair &p : pairs) {
            EXPECT_GE(sim.done(p.c), sim.done(p.p))
                << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothRealizations, SquashEdeTest,
                         ::testing::Values(EnforceMode::IQ,
                                           EnforceMode::WB),
                         [](const auto &info) {
                             return std::string(enforceModeName(
                                 info.param));
                         });

} // namespace
} // namespace ede
