/**
 * @file
 * EDK virtualization tests (Section IX-A): linear-scan assignment of
 * physical keys, WAIT_KEY spills, and end-to-end ordering of the
 * lowered program on the simulated core.
 */

#include <gtest/gtest.h>

#include "compiler/edk_alloc.hh"
#include "sim_test_util.hh"

namespace ede {
namespace {

VKeyedInst
producer(VKey v)
{
    VKeyedInst in;
    in.si.op = Op::DcCvap;
    in.si.base = 2;
    in.vdef = v;
    return in;
}

VKeyedInst
consumer(VKey v, Op op = Op::Str)
{
    VKeyedInst in;
    in.si.op = op;
    in.si.src1 = 3;
    in.si.base = 4;
    in.si.size = 8;
    in.vuse = v;
    return in;
}

TEST(EdkAlloc, EmptyProgram)
{
    const EdkAllocResult r = allocateEdks({});
    EXPECT_TRUE(r.code.empty());
    EXPECT_EQ(r.waitKeysInserted, 0u);
}

TEST(EdkAlloc, SinglePairGetsAKey)
{
    const EdkAllocResult r = allocateEdks({producer(100),
                                           consumer(100)});
    ASSERT_EQ(r.code.size(), 2u);
    EXPECT_TRUE(edkIsReal(r.code[0].edkDef));
    EXPECT_EQ(r.code[1].edkUse, r.code[0].edkDef);
    EXPECT_EQ(r.waitKeysInserted, 0u);
    EXPECT_EQ(r.origin[0], 0u);
    EXPECT_EQ(r.origin[1], 1u);
}

TEST(EdkAlloc, DisjointRangesReuseKeys)
{
    // 100 sequential pairs: ranges never overlap, so one physical
    // key serves them all and nothing spills.
    std::vector<VKeyedInst> prog;
    for (VKey v = 1; v <= 100; ++v) {
        prog.push_back(producer(v));
        prog.push_back(consumer(v));
    }
    const EdkAllocResult r = allocateEdks(prog);
    EXPECT_EQ(r.code.size(), 200u);
    EXPECT_EQ(r.waitKeysInserted, 0u);
    EXPECT_EQ(r.fencesInserted, 0u);
    for (std::size_t i = 0; i < r.code.size(); i += 2)
        EXPECT_EQ(r.code[i].edkDef, r.code[i + 1].edkUse);
}

TEST(EdkAlloc, FifteenOverlappingRangesFitExactly)
{
    std::vector<VKeyedInst> prog;
    for (VKey v = 1; v <= 15; ++v)
        prog.push_back(producer(v));
    for (VKey v = 1; v <= 15; ++v)
        prog.push_back(consumer(v));
    const EdkAllocResult r = allocateEdks(prog);
    EXPECT_EQ(r.waitKeysInserted, 0u);
    // All fifteen physical keys are distinct.
    std::set<Edk> used;
    for (int i = 0; i < 15; ++i)
        used.insert(r.code[i].edkDef);
    EXPECT_EQ(used.size(), 15u);
    // Each consumer matches its producer's key.
    for (int i = 0; i < 15; ++i)
        EXPECT_EQ(r.code[15 + i].edkUse, r.code[i].edkDef);
}

TEST(EdkAlloc, SixteenthOverlappingRangeSpillsWithWaitKey)
{
    std::vector<VKeyedInst> prog;
    for (VKey v = 1; v <= 16; ++v)
        prog.push_back(producer(v));
    for (VKey v = 1; v <= 16; ++v)
        prog.push_back(consumer(v));
    const EdkAllocResult r = allocateEdks(prog);
    EXPECT_GE(r.waitKeysInserted, 1u);
    EXPECT_EQ(r.fencesInserted, 0u);
    // One inserted WAIT_KEY.
    std::size_t waits = 0;
    for (const StaticInst &si : r.code)
        waits += (si.op == Op::WaitKey) ? 1 : 0;
    EXPECT_EQ(waits, r.waitKeysInserted);
    // The program grew by exactly the inserted ops.
    EXPECT_EQ(r.code.size(), prog.size() + r.waitKeysInserted);
}

TEST(EdkAlloc, SpilledConsumerDropsToZeroKey)
{
    // The victim's consumer, after eviction, carries the zero key --
    // its ordering is covered by the inserted WAIT_KEY.
    std::vector<VKeyedInst> prog;
    for (VKey v = 1; v <= 16; ++v)
        prog.push_back(producer(v));
    for (VKey v = 1; v <= 16; ++v)
        prog.push_back(consumer(v));
    const EdkAllocResult r = allocateEdks(prog);
    std::size_t zero_consumers = 0;
    for (std::size_t i = 0; i < r.code.size(); ++i) {
        if (r.origin[i] != EdkAllocResult::kInserted &&
            r.code[i].op == Op::Str && !edkIsReal(r.code[i].edkUse)) {
            ++zero_consumers;
        }
    }
    EXPECT_GE(zero_consumers, 1u);
}

TEST(EdkAlloc, LoadConsumersForceFenceFallback)
{
    // Sixteen overlapping ranges whose remaining consumers are all
    // loads: WAIT_KEY cannot cover them (loads observe at execute),
    // so the allocator emits the DSB fallback.
    std::vector<VKeyedInst> prog;
    for (VKey v = 1; v <= 16; ++v)
        prog.push_back(producer(v));
    for (VKey v = 1; v <= 16; ++v)
        prog.push_back(consumer(v, Op::Ldr));
    const EdkAllocResult r = allocateEdks(prog);
    EXPECT_GE(r.fencesInserted, 1u);
}

TEST(EdkAlloc, RedefinitionKeepsItsSlot)
{
    std::vector<VKeyedInst> prog;
    prog.push_back(producer(7));
    prog.push_back(consumer(7));
    prog.push_back(producer(7)); // Redefine while... range reopens.
    prog.push_back(consumer(7));
    const EdkAllocResult r = allocateEdks(prog);
    EXPECT_EQ(r.waitKeysInserted, 0u);
    EXPECT_EQ(r.code[1].edkUse, r.code[0].edkDef);
    EXPECT_EQ(r.code[3].edkUse, r.code[2].edkDef);
}

TEST(EdkAlloc, JoinConsumesTwoVirtualKeys)
{
    std::vector<VKeyedInst> prog;
    prog.push_back(producer(1));
    prog.push_back(producer(2));
    VKeyedInst join;
    join.si.op = Op::Join;
    join.vdef = 3;
    join.vuse = 1;
    join.vuse2 = 2;
    prog.push_back(join);
    prog.push_back(consumer(3));
    const EdkAllocResult r = allocateEdks(prog);
    EXPECT_EQ(r.code[2].edkUse, r.code[0].edkDef);
    EXPECT_EQ(r.code[2].edkUse2, r.code[1].edkDef);
    EXPECT_EQ(r.code[3].edkUse, r.code[2].edkDef);
}

TEST(EdkAlloc, LoweredProgramEnforcesOrderingEndToEnd)
{
    // 30 virtual pairs with overlapping ranges (more than 15 live at
    // once), lowered, attached to addresses and run on the WB core:
    // every consumer must still complete after its producer.
    constexpr int kPairs = 30;
    std::vector<VKeyedInst> prog;
    for (VKey v = 1; v <= kPairs; ++v)
        prog.push_back(producer(v));
    for (VKey v = 1; v <= kPairs; ++v)
        prog.push_back(consumer(v));
    const EdkAllocResult r = allocateEdks(prog);

    MiniSim sim(EnforceMode::WB);
    Trace t;
    TraceBuilder b(t);
    // Warm consumer lines.
    for (int i = 0; i < kPairs; ++i)
        b.str(1, 2, MiniSim::dramLine(i), 0);
    b.dsbSy();

    std::vector<std::size_t> prod_idx(kPairs + 1);
    std::vector<std::size_t> cons_idx(kPairs + 1);
    int nprod = 0;
    int ncons = 0;
    for (std::size_t i = 0; i < r.code.size(); ++i) {
        const StaticInst &si = r.code[i];
        if (si.op == Op::DcCvap) {
            prod_idx[nprod + 1] = b.cvap(si.base, sim.nvmLine(nprod),
                                         {si.edkDef, si.edkUse});
            ++nprod;
        } else if (si.op == Op::Str) {
            ++ncons;
            cons_idx[ncons] =
                b.str(si.src1, si.base, MiniSim::dramLine(ncons - 1),
                      1, 0, {si.edkDef, si.edkUse});
        } else if (si.op == Op::WaitKey) {
            b.waitKey(si.edkUse);
        } else {
            FAIL() << "unexpected op in lowered code";
        }
    }
    sim.run(t);
    for (int p = 1; p <= kPairs; ++p) {
        EXPECT_GE(sim.done(cons_idx[p]), sim.done(prod_idx[p]))
            << "pair " << p;
    }
}

TEST(EdkAllocDeath, UnknownConsumerIsRejected)
{
    // A consumer of a virtual key that was never produced (and never
    // evicted) indicates broken IR.
    EXPECT_DEATH(allocateEdks({consumer(9)}), "unknown virtual key");
}

} // namespace
} // namespace ede
