/**
 * @file
 * Tests for the NVM/DRAM devices and the assembled hierarchy.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "common/random.hh"
#include "mem/mem_system.hh"

namespace ede {
namespace {

// ---------------------------------------------------------------
// NvmDevice unit tests.
// ---------------------------------------------------------------

TEST(NvmDevice, CleanCompletesWhenBufferAccepts)
{
    NvmParams p;
    NvmDevice nvm(p);
    ASSERT_TRUE(nvm.tryAccept(MemReq{7, ReqKind::Clean, 0x100, 64}, 0));
    std::vector<MemResp> out;
    Cycle now = 0;
    while (out.empty() && now < 1000)
        nvm.tick(++now, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, 7u);
    EXPECT_EQ(out[0].kind, ReqKind::Clean);
    // Acceptance (persistence) is fast -- the media write happens
    // later in the background.
    EXPECT_LE(now, p.bufferAccept + 2);
    EXPECT_EQ(nvm.stats().cleansAccepted, 1u);
}

TEST(NvmDevice, WritesCoalesceIntoPendingLine)
{
    NvmDevice nvm;
    // Same 256-byte media line.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x100, 64}, 0);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x140, 64}, 0);
    EXPECT_EQ(nvm.bufferOccupancy(), 1u);
    EXPECT_EQ(nvm.stats().writesCoalesced, 1u);
    // A different media line occupies a second slot.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x200, 64}, 0);
    EXPECT_EQ(nvm.bufferOccupancy(), 2u);
}

TEST(NvmDevice, BufferFullExertsBackpressure)
{
    NvmParams p;
    p.writeLatency = 1000000; // Keep the media busy forever.
    p.mediaWriters = 1;
    NvmDevice nvm(p);
    for (std::uint32_t i = 0; i < p.bufferSlots; ++i) {
        ASSERT_TRUE(nvm.tryAccept(
            MemReq{kNoReq, ReqKind::Writeback,
                   static_cast<Addr>(i) * 256, 64}, 0));
    }
    EXPECT_FALSE(nvm.tryAccept(
        MemReq{kNoReq, ReqKind::Writeback, 999 * 256, 64}, 0));
    EXPECT_EQ(nvm.stats().bufferFullRejects, 1u);
    // Coalescing into an existing line still works when full.
    EXPECT_TRUE(nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x40,
                                     64}, 0));
}

TEST(NvmDevice, MediaWriteTakesWriteLatencyAndSamplesOccupancy)
{
    NvmParams p;
    NvmDevice nvm(p);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (!nvm.idle() && now < 10 * p.writeLatency)
        nvm.tick(++now, out);
    EXPECT_TRUE(nvm.idle());
    EXPECT_GE(now, p.writeLatency);
    EXPECT_EQ(nvm.stats().mediaWrites, 1u);
    EXPECT_EQ(nvm.occupancyDist().totalSamples(), 1u);
    EXPECT_EQ(nvm.occupancyDist().count(1), 1u); // One pending write.
}

TEST(NvmDevice, ReadLatencyIsAsymmetric)
{
    NvmParams p;
    NvmDevice nvm(p);
    nvm.tryAccept(MemReq{1, ReqKind::Read, 0x0, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (out.empty() && now < 10 * p.readLatency)
        nvm.tick(++now, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GE(now, p.readLatency);
    EXPECT_LT(now, p.writeLatency);
}

TEST(NvmDevice, ReadsHitThePendingWriteBuffer)
{
    NvmParams p;
    NvmDevice nvm(p);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x100, 64}, 0);
    nvm.tryAccept(MemReq{1, ReqKind::Read, 0x120, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (out.empty() && now < p.readLatency)
        nvm.tick(++now, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LE(now, p.bufferReadHit + 2);
    EXPECT_EQ(nvm.stats().bufferReadHits, 1u);
}

TEST(NvmDevice, PersistHookFiresOnAcceptance)
{
    NvmDevice nvm;
    std::vector<Addr> persisted;
    std::vector<TraceIndex> origins;
    nvm.setPersistHook(
        [&](Addr a, std::uint32_t, Cycle, TraceIndex o, unsigned) {
            persisted.push_back(a);
            origins.push_back(o);
        });
    nvm.tryAccept(MemReq{1, ReqKind::Clean, 0x300, 64, 42}, 5);
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x400, 64}, 6);
    ASSERT_EQ(persisted.size(), 2u);
    EXPECT_EQ(persisted[0], 0x300u);
    EXPECT_EQ(origins[0], 42u);
    EXPECT_EQ(origins[1], kNoOrigin);
}

TEST(NvmDevice, CoalesceDuringMediaWriteReArmsTheSlot)
{
    // A write landing on a line already being pushed to the media
    // must re-arm the slot: otherwise the newer data would be lost.
    NvmParams p;
    p.mediaWriters = 1;
    NvmDevice nvm(p);
    std::vector<MemResp> out;
    Cycle now = 0;
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64}, now);
    // Let the media write start.
    for (int i = 0; i < 5; ++i)
        nvm.tick(++now, out);
    // Coalesce while writing.
    nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x40, 64}, now);
    EXPECT_EQ(nvm.bufferOccupancy(), 1u);
    while (!nvm.idle() && now < 10 * p.writeLatency)
        nvm.tick(++now, out);
    EXPECT_TRUE(nvm.idle());
    // The re-armed slot drained as one (merged) media write.
    EXPECT_EQ(nvm.stats().mediaWrites, 1u);
    EXPECT_EQ(nvm.stats().writesCoalesced, 1u);
}

TEST(NvmDevice, FullBufferDrainOrderOccupancyAndHints)
{
    // Default device: 128 slots, 5 media writers, 1500-cycle writes.
    // Fill every slot at cycle 0 (lines 0..127), launch five writes,
    // then coalesce into line 2 while it is on the media so it
    // re-arms behind every cycle-0 slot.  Everything below is
    // computed by hand from the oldest-first, vector-order-tie-break
    // launch rule.
    NvmParams p;
    NvmDevice nvm(p);
    std::vector<std::pair<Addr, Cycle>> media;
    nvm.setMediaWriteHook(
        [&](Addr line, Cycle now) { media.emplace_back(line, now); });
    std::vector<MemResp> out;
    const auto line = [](int i) { return static_cast<Addr>(i) * 256; };

    for (int i = 0; i < 128; ++i) {
        ASSERT_TRUE(nvm.tryAccept(
            MemReq{kNoReq, ReqKind::Writeback, line(i), 64}, 0));
    }
    EXPECT_EQ(nvm.nextEventCycle(0), 0u);     // Launchable, writers free.
    nvm.tick(0, out);                         // Launch lines 0-4.
    EXPECT_EQ(nvm.nextEventCycle(1), 1500u);  // All five writers busy.
    EXPECT_EQ(nvm.nextEventCycle(1500), 1500u);

    // Coalesce into line 2 mid-write: it re-arms (enqueued = 100),
    // freeing a writer, so the device can act at once.
    ASSERT_TRUE(nvm.tryAccept(
        MemReq{kNoReq, ReqKind::Writeback, line(2) + 64, 64}, 100));
    EXPECT_EQ(nvm.bufferOccupancy(), 128u);
    EXPECT_EQ(nvm.nextEventCycle(100), 100u);
    nvm.tick(100, out);                       // Launch line 5 (due 1600).
    EXPECT_EQ(nvm.nextEventCycle(101), 1500u);

    // From here one lane of writers turns over at 1500 + 1500m (four
    // writes, m = 0..25) and one at 100 + 1500m (one write, m =
    // 1..25); the re-armed line 2 launches last, at 37500, with lines
    // 126 and 127.  Drive the device from hint to hint.
    std::vector<Cycle> expectEvents;
    for (Cycle m = 0; m <= 25; ++m) {
        expectEvents.push_back(1500 + 1500 * m);
        if (m < 25)
            expectEvents.push_back(1600 + 1500 * m);
    }
    std::vector<Cycle> events;
    Cycle now = 100;
    while (!nvm.idle()) {
        now = nvm.nextEventCycle(now + 1);
        ASSERT_NE(now, kNoCycle);
        events.push_back(now);
        nvm.tick(now, out);
    }
    EXPECT_EQ(events, expectEvents);
    EXPECT_EQ(nvm.nextEventCycle(now + 1), kNoCycle);

    // Media-write order: launch order, except that writes finishing
    // on one cycle leave in buffer (vector) order -- line 2 still
    // sits ahead of 126 and 127.
    std::vector<Addr> expectLines{line(0), line(1), line(3), line(4)};
    for (int i = 5; i <= 125; ++i)
        expectLines.push_back(line(i));
    for (int i : {2, 126, 127})
        expectLines.push_back(line(i));
    ASSERT_EQ(media.size(), 128u);
    for (std::size_t i = 0; i < media.size(); ++i)
        EXPECT_EQ(media[i].first, expectLines[i]) << "media write " << i;
    EXPECT_EQ(media[0].second, 1500u);
    EXPECT_EQ(media[3].second, 1500u);
    EXPECT_EQ(media[4].second, 1600u);        // Line 5.
    EXPECT_EQ(media[124].second, 37600u);     // Line 125.
    for (std::size_t i = 125; i < 128; ++i)
        EXPECT_EQ(media[i].second, 39000u);

    // Nothing arrives after the fill, so each write samples the
    // occupancy one lower than the last: 128, 127, ..., 1.
    const Distribution &occ = nvm.occupancyDist();
    EXPECT_EQ(occ.totalSamples(), 128u);
    EXPECT_EQ(occ.count(0), 0u);
    for (std::size_t v = 1; v <= 128; ++v)
        EXPECT_EQ(occ.count(v), 1u) << "occupancy " << v;
    EXPECT_EQ(nvm.stats().mediaWrites, 128u);
    EXPECT_EQ(nvm.stats().writesCoalesced, 1u);
}

TEST(NvmDevice, ReArmingTheEarliestWriteKeepsTheHintExact)
{
    // Two writers: A due 1500, B due 1510.  Re-arming A (the earliest
    // writeDone) must move the media-write hint to B's 1510, not
    // leave it at A's abandoned 1500.
    NvmParams p;
    p.mediaWriters = 2;
    NvmDevice nvm(p);
    std::vector<MemResp> out;
    ASSERT_TRUE(nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64},
                              0));
    nvm.tick(0, out);
    ASSERT_TRUE(nvm.tryAccept(
        MemReq{kNoReq, ReqKind::Writeback, 0x100, 64}, 10));
    nvm.tick(10, out);
    EXPECT_EQ(nvm.nextEventCycle(11), 1500u);
    ASSERT_TRUE(nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x40, 64},
                              20));
    EXPECT_EQ(nvm.nextEventCycle(20), 20u);  // A relaunches at once.
    nvm.tick(20, out);                       // A due 1520.
    EXPECT_EQ(nvm.nextEventCycle(21), 1510u);
    nvm.tick(1510, out);
    EXPECT_EQ(nvm.stats().mediaWrites, 1u);
    EXPECT_EQ(nvm.nextEventCycle(1511), 1520u);
}

TEST(NvmDevice, ReadQueueBackpressure)
{
    NvmParams p;
    p.readQueueDepth = 2;
    p.mediaReaders = 1;
    NvmDevice nvm(p);
    // Saturate the single reader and the queue.
    EXPECT_TRUE(nvm.tryAccept(MemReq{1, ReqKind::Read, 0x0, 64}, 0));
    std::vector<MemResp> out;
    nvm.tick(1, out); // First read occupies the port.
    EXPECT_TRUE(nvm.tryAccept(MemReq{2, ReqKind::Read, 0x400, 64}, 1));
    EXPECT_TRUE(nvm.tryAccept(MemReq{3, ReqKind::Read, 0x800, 64}, 1));
    EXPECT_FALSE(nvm.tryAccept(MemReq{4, ReqKind::Read, 0xc00, 64},
                               1));
}

TEST(MemSystemWarm, WarmLineMakesLoadsFast)
{
    MemSystem mem{MemSystemParams{}};
    mem.warmLine(0x123400, /*level=*/1);
    EXPECT_TRUE(mem.l1d().probe(0x123400));
    EXPECT_TRUE(mem.l2().probe(0x123400));
    EXPECT_TRUE(mem.l3().probe(0x123400));
    Cycle now = 0;
    const auto id = mem.sendLoad(0x123400, 8, now);
    ASSERT_TRUE(id.has_value());
    Cycle spent = 0;
    while (!mem.consumeDone(*id, 0)) {
        mem.tick(now++);
        ASSERT_LT(++spent, 20u) << "warm load should hit L1";
    }
}

TEST(MemSystemWarm, LevelThreeWarmStopsAtL3)
{
    MemSystem mem{MemSystemParams{}};
    mem.warmLine(0x5000, /*level=*/3);
    EXPECT_FALSE(mem.l1d().probe(0x5000));
    EXPECT_FALSE(mem.l2().probe(0x5000));
    EXPECT_TRUE(mem.l3().probe(0x5000));
}

// ---------------------------------------------------------------
// DramDevice unit tests.
// ---------------------------------------------------------------

TEST(DramDevice, RowHitIsFasterThanRowMiss)
{
    DramParams p;
    auto run_one = [&](Addr a1, Addr a2) {
        DramDevice dram(p);
        std::vector<MemResp> out;
        Cycle now = 0;
        dram.tryAccept(MemReq{1, ReqKind::Read, a1, 64}, now);
        while (out.empty())
            dram.tick(++now, out);
        out.clear();
        dram.tryAccept(MemReq{2, ReqKind::Read, a2, 64}, now);
        const Cycle start = now;
        while (out.empty())
            dram.tick(++now, out);
        return now - start;
    };
    // Same row -> hit; same bank different row -> miss.
    const Cycle hit = run_one(0x0, 0x40);
    const Cycle miss = run_one(0x0, 0x40 + 2048ull * 32);
    EXPECT_LT(hit, miss);
}

TEST(DramDevice, QueueDepthLimitsAcceptance)
{
    DramParams p;
    p.queueDepth = 2;
    DramDevice dram(p);
    EXPECT_TRUE(dram.tryAccept(MemReq{1, ReqKind::Read, 0x0, 64}, 0));
    EXPECT_TRUE(dram.tryAccept(MemReq{2, ReqKind::Read, 0x40, 64}, 0));
    EXPECT_FALSE(dram.tryAccept(MemReq{3, ReqKind::Read, 0x80, 64}, 0));
}

TEST(DramDevice, DrainsToIdle)
{
    DramDevice dram;
    dram.tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x0, 64}, 0);
    dram.tryAccept(MemReq{1, ReqKind::Read, 0x4000, 64}, 0);
    std::vector<MemResp> out;
    Cycle now = 0;
    while (!dram.idle() && now < 100000)
        dram.tick(++now, out);
    EXPECT_TRUE(dram.idle());
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 1u);
}

// ---------------------------------------------------------------
// Full hierarchy.
// ---------------------------------------------------------------

struct MemSystemFixture : ::testing::Test
{
    MemSystemFixture() : mem(MemSystemParams{}) {}

    Cycle
    runUntilDone(ReqId id, Cycle limit = 100000)
    {
        while (!mem.consumeDone(id, 0)) {
            mem.tick(now++);
            EXPECT_LT(now, limit) << "request " << id << " hung";
            if (now >= limit)
                return now;
        }
        return now;
    }

    MemSystem mem;
    Cycle now = 0;
};

TEST_F(MemSystemFixture, ColdDramLoadMissesAllLevels)
{
    const auto id = mem.sendLoad(0x10000, 8, now);
    ASSERT_TRUE(id.has_value());
    const Cycle done = runUntilDone(*id);
    // Must at least pay L1+L2+L3 latencies plus DRAM access.
    EXPECT_GT(done, 33u);
    EXPECT_EQ(mem.l1d().stats().misses, 1u);
}

TEST_F(MemSystemFixture, WarmLoadHitsL1)
{
    const auto id1 = mem.sendLoad(0x10000, 8, now);
    runUntilDone(*id1);
    const Cycle warm_start = now;
    const auto id2 = mem.sendLoad(0x10008, 8, now);
    const Cycle done = runUntilDone(*id2);
    EXPECT_LE(done - warm_start, 4u);
    EXPECT_EQ(mem.l1d().stats().hits, 1u);
}

TEST_F(MemSystemFixture, NvmLoadSlowerThanDramLoad)
{
    const Addr nvm_addr = mem.params().map.nvmBase() + 0x1000;
    const auto d = mem.sendLoad(0x20000, 8, now);
    const Cycle t0 = now;
    const Cycle dram_done = runUntilDone(*d) - t0;
    const Cycle t1 = now;
    const auto n = mem.sendLoad(nvm_addr, 8, now);
    const Cycle nvm_done = runUntilDone(*n) - t1;
    EXPECT_GT(nvm_done, dram_done);
    EXPECT_GE(nvm_done, mem.params().nvm.readLatency);
}

TEST_F(MemSystemFixture, CleanToNvmPersistsViaBuffer)
{
    const Addr nvm_addr = mem.params().map.nvmBase() + 0x40;
    const auto s = mem.sendStore(nvm_addr, 8, now);
    runUntilDone(*s);
    const auto c = mem.sendClean(nvm_addr, now);
    runUntilDone(*c);
    EXPECT_EQ(mem.controller().nvm().stats().cleansAccepted, 1u);
    // Run to idle: the media write completes in the background.
    while (!mem.idle() && now < 200000)
        mem.tick(now++);
    EXPECT_TRUE(mem.idle());
    EXPECT_GE(mem.controller().nvm().stats().mediaWrites, 1u);
}

TEST_F(MemSystemFixture, CleanToDramCompletesAtController)
{
    const auto c = mem.sendClean(0x30000, now);
    const Cycle t0 = now;
    const Cycle done = runUntilDone(*c) - t0;
    EXPECT_LT(done, mem.params().nvm.bufferAccept + 40);
    EXPECT_EQ(mem.controller().nvm().stats().cleansAccepted, 0u);
}

TEST_F(MemSystemFixture, StoreCompletesAtL1NotAtMemory)
{
    const auto s = mem.sendStore(0x40000, 8, now);
    const Cycle t0 = now;
    runUntilDone(*s);
    // Write-allocate: the fill costs DRAM latency, but nothing waits
    // for a memory write.
    EXPECT_TRUE(mem.l1d().probeDirty(0x40000));
    EXPECT_GT(now - t0, 0u);
}

TEST_F(MemSystemFixture, IdleAfterAllTraffic)
{
    const auto a = mem.sendLoad(0x1000, 8, now);
    const auto b = mem.sendStore(mem.params().map.nvmBase() + 0x80, 8,
                                 now);
    runUntilDone(*a);
    runUntilDone(*b);
    const auto c = mem.sendClean(mem.params().map.nvmBase() + 0x80,
                                 now);
    runUntilDone(*c);
    while (!mem.idle() && now < 500000)
        mem.tick(now++);
    EXPECT_TRUE(mem.idle());
}

TEST(MemSystemDone, CompletionsStayWithTheirCore)
{
    // Two cores interleave loads, stores and cleans over shared DRAM
    // and NVM lines.  Core 1 drains its completions only every
    // seventh cycle, so they pile up while core 0's come and go.
    MemSystem mem(MemSystemParams{}, 2);
    const Addr nvm = mem.params().map.nvmBase();
    Rng rng(7);
    constexpr std::size_t kRequests = 400;
    std::array<std::vector<ReqId>, 2> pending;  // Sent, not consumed.
    std::set<ReqId> consumed;
    std::size_t sent = 0;
    for (Cycle now = 0;
         now < 200000 && (sent < kRequests || !pending[0].empty() ||
                          !pending[1].empty());
         ++now) {
        if (sent < kRequests && rng.below(3) == 0) {
            const auto core = static_cast<unsigned>(rng.below(2));
            const Addr a = (rng.below(2) ? nvm : 0x10000) +
                           64 * rng.below(32) + 8 * rng.below(8);
            std::optional<ReqId> id;
            switch (rng.below(3)) {
              case 0:
                id = mem.sendLoad(a, 8, now, core);
                break;
              case 1:
                id = mem.sendStore(a, 8, now, kNoOrigin, core);
                break;
              default:
                id = mem.sendClean(a, now, kNoOrigin, core);
                break;
            }
            if (id) {
                pending[core].push_back(*id);
                ++sent;
            }
        }
        mem.tick(now);
        if (mem.hasDone(0) || mem.hasDone(1))
            EXPECT_EQ(mem.nextEventCycle(now + 1), now + 1);
        for (unsigned c = 0; c < 2; ++c) {
            if (c == 1 && now % 7 != 0)
                continue;
            const unsigned other = 1 - c;
            const bool had = mem.hasDone(c);
            const bool other_had = mem.hasDone(other);
            std::size_t got = 0;
            for (auto it = pending[c].begin(); it != pending[c].end();) {
                // Asked as the other core's, an id is not found (and
                // stays unconsumed).
                EXPECT_FALSE(mem.consumeDone(*it, other));
                if (!mem.consumeDone(*it, c)) {
                    ++it;
                    continue;
                }
                EXPECT_FALSE(mem.consumeDone(*it, c)) << "consumed twice";
                EXPECT_TRUE(consumed.insert(*it).second);
                ++got;
                it = pending[c].erase(it);
            }
            EXPECT_EQ(had, got > 0) << "cycle " << now << ", core " << c;
            EXPECT_FALSE(mem.hasDone(c));
            EXPECT_EQ(mem.hasDone(other), other_had);
        }
    }
    EXPECT_EQ(sent, kRequests);
    EXPECT_EQ(consumed.size(), sent);
    EXPECT_TRUE(pending[0].empty() && pending[1].empty());
    EXPECT_GT(mem.coherenceStats().snoops, 0u);
    // Unknown and already consumed ids.
    EXPECT_FALSE(mem.consumeDone(*consumed.rbegin() + 1, 0));
    EXPECT_FALSE(mem.consumeDone(kNoReq, 1));
    for (const ReqId id : consumed) {
        EXPECT_FALSE(mem.consumeDone(id, 0));
        EXPECT_FALSE(mem.consumeDone(id, 1));
    }
}

} // namespace
} // namespace ede
