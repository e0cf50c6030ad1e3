/**
 * @file
 * Unit tests for one cache level, driven against a scripted backing
 * sink.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/cache.hh"

namespace ede {
namespace {

/** Records everything sent below; fills are injected manually. */
class FakeBelow : public MemSink
{
  public:
    bool
    tryAccept(const MemReq &req, Cycle) override
    {
        if (!acceptAll)
            return false;
        reqs.push_back(req);
        return true;
    }

    std::size_t
    countKind(ReqKind k) const
    {
        std::size_t n = 0;
        for (const auto &r : reqs)
            n += (r.kind == k) ? 1 : 0;
        return n;
    }

    std::vector<MemReq> reqs;
    bool acceptAll = true;
};

struct CacheFixture : ::testing::Test
{
    CacheFixture()
    {
        CacheParams p;
        p.name = "l1-test";
        p.sizeBytes = 1024; // 4 sets x 4 ways x 64 B.
        p.assoc = 4;
        p.lineBytes = 64;
        p.latency = 2;
        p.ports = 2;
        p.mshrs = 2;
        p.inputQueue = 4;
        cache = std::make_unique<Cache>(p, &below);
        cache->setRespFn([this](const MemResp &r, Cycle) {
            resps.push_back(r);
        });
    }

    void
    step(int n = 1)
    {
        for (int i = 0; i < n; ++i)
            cache->tick(now++);
    }

    /** Respond to the most recent fill request from below. */
    void
    fillLast()
    {
        ASSERT_FALSE(below.reqs.empty());
        const MemReq &fill = below.reqs.back();
        ASSERT_EQ(fill.kind, ReqKind::Read);
        cache->handleResp(MemResp{fill.id, ReqKind::Read, fill.addr},
                          now);
    }

    FakeBelow below;
    std::unique_ptr<Cache> cache;
    std::vector<MemResp> resps;
    Cycle now = 0;
};

TEST_F(CacheFixture, MissSendsLineFillBelow)
{
    ASSERT_TRUE(cache->tryAccept(MemReq{1, ReqKind::Read, 0x1008, 8},
                                 now));
    step(2);
    ASSERT_EQ(below.reqs.size(), 1u);
    EXPECT_EQ(below.reqs[0].kind, ReqKind::Read);
    EXPECT_EQ(below.reqs[0].addr, 0x1000u); // Line aligned.
    EXPECT_EQ(below.reqs[0].id, kNoReq);    // Fill, not the demand id.
    EXPECT_TRUE(resps.empty());
}

TEST_F(CacheFixture, FillCompletesWaitersAndInstallsLine)
{
    cache->tryAccept(MemReq{1, ReqKind::Read, 0x1008, 8}, now);
    step(2);
    fillLast();
    step(4);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_EQ(resps[0].id, 1u);
    EXPECT_TRUE(cache->probe(0x1008));
    EXPECT_FALSE(cache->probeDirty(0x1008));
    EXPECT_EQ(cache->stats().misses, 1u);
}

TEST_F(CacheFixture, HitRespondsWithoutGoingBelow)
{
    cache->tryAccept(MemReq{1, ReqKind::Read, 0x1000, 8}, now);
    step(2);
    fillLast();
    step(4);
    resps.clear();
    const auto below_count = below.reqs.size();
    cache->tryAccept(MemReq{2, ReqKind::Read, 0x1010, 8}, now);
    step(4);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_EQ(resps[0].id, 2u);
    EXPECT_EQ(below.reqs.size(), below_count);
    EXPECT_EQ(cache->stats().hits, 1u);
}

TEST_F(CacheFixture, WriteMissFillsThenDirties)
{
    cache->tryAccept(MemReq{1, ReqKind::Write, 0x2000, 8}, now);
    step(2);
    fillLast();
    step(4);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_TRUE(cache->probeDirty(0x2000));
}

TEST_F(CacheFixture, MshrMergesSameLineRequests)
{
    cache->tryAccept(MemReq{1, ReqKind::Read, 0x3000, 8}, now);
    cache->tryAccept(MemReq{2, ReqKind::Read, 0x3008, 8}, now);
    step(2);
    EXPECT_EQ(below.reqs.size(), 1u); // One fill for both.
    EXPECT_EQ(cache->stats().mshrMerges, 1u);
    fillLast();
    step(4);
    EXPECT_EQ(resps.size(), 2u);
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    // Addresses 0x0, 0x1000, 0x2000, ... map to set 0 (4 sets).
    for (int i = 0; i < 5; ++i) {
        cache->tryAccept(MemReq{static_cast<ReqId>(i + 1),
                                ReqKind::Write,
                                static_cast<Addr>(i) * 0x1000, 8},
                         now);
        step(2);
        fillLast();
        step(4);
    }
    // The fifth write evicted the LRU (first) dirty line.
    EXPECT_EQ(below.countKind(ReqKind::Writeback), 1u);
    EXPECT_EQ(below.reqs.back().addr, 0x0u);
    EXPECT_FALSE(cache->probe(0x0));
    EXPECT_EQ(cache->stats().evictions, 1u);
    EXPECT_EQ(cache->stats().writebacks, 1u);
}

TEST_F(CacheFixture, LruVictimIsLeastRecentlyUsed)
{
    for (int i = 0; i < 4; ++i) {
        cache->tryAccept(MemReq{static_cast<ReqId>(i + 1),
                                ReqKind::Read,
                                static_cast<Addr>(i) * 0x1000, 8},
                         now);
        step(2);
        fillLast();
        step(4);
    }
    // Touch line 0 so line 1 becomes LRU.
    cache->tryAccept(MemReq{10, ReqKind::Read, 0x0, 8}, now);
    step(4);
    cache->tryAccept(MemReq{11, ReqKind::Read, 0x4000, 8}, now);
    step(2);
    fillLast();
    step(4);
    EXPECT_TRUE(cache->probe(0x0));
    EXPECT_FALSE(cache->probe(0x1000));
}

TEST_F(CacheFixture, CleanClearsDirtyAndForwards)
{
    cache->tryAccept(MemReq{1, ReqKind::Write, 0x2000, 8}, now);
    step(2);
    fillLast();
    step(4);
    ASSERT_TRUE(cache->probeDirty(0x2000));

    cache->tryAccept(MemReq{2, ReqKind::Clean, 0x2008, 8}, now);
    step(2);
    EXPECT_FALSE(cache->probeDirty(0x2000));
    EXPECT_TRUE(cache->probe(0x2000)); // Still resident (clean).
    ASSERT_EQ(below.countKind(ReqKind::Clean), 1u);
    EXPECT_EQ(below.reqs.back().addr, 0x2000u); // Line aligned.

    // Persist ack flows straight back up.
    resps.clear();
    cache->handleResp(MemResp{2, ReqKind::Clean, 0x2000}, now);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_EQ(resps[0].kind, ReqKind::Clean);
    EXPECT_EQ(resps[0].id, 2u);
}

TEST_F(CacheFixture, CleanMissStillReachesPersistencePoint)
{
    cache->tryAccept(MemReq{5, ReqKind::Clean, 0x7000, 8}, now);
    step(2);
    EXPECT_EQ(below.countKind(ReqKind::Clean), 1u);
}

TEST_F(CacheFixture, WritebackFromAboveAllocatesDirtyWithoutFill)
{
    cache->tryAccept(MemReq{kNoReq, ReqKind::Writeback, 0x5000, 64},
                     now);
    step(2);
    EXPECT_TRUE(cache->probeDirty(0x5000));
    EXPECT_TRUE(below.reqs.empty()); // No fill needed.
}

TEST_F(CacheFixture, InputQueueExertsBackpressure)
{
    below.acceptAll = false; // Keep requests stuck.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(cache->tryAccept(
            MemReq{static_cast<ReqId>(i + 1), ReqKind::Read,
                   static_cast<Addr>(i) * 0x40, 8}, now));
    }
    EXPECT_FALSE(cache->tryAccept(MemReq{9, ReqKind::Read, 0x900, 8},
                                  now));
    EXPECT_GT(cache->stats().rejects, 0u);
}

TEST_F(CacheFixture, RetriesWhenBelowRejects)
{
    below.acceptAll = false;
    cache->tryAccept(MemReq{1, ReqKind::Read, 0x1000, 8}, now);
    step(3);
    EXPECT_TRUE(below.reqs.empty());
    below.acceptAll = true;
    step(2);
    EXPECT_EQ(below.reqs.size(), 1u); // Retried fill.
}

TEST_F(CacheFixture, MshrExhaustionStallsHeadOfQueue)
{
    // Two MSHRs; three distinct-line misses.
    cache->tryAccept(MemReq{1, ReqKind::Read, 0x1000, 8}, now);
    cache->tryAccept(MemReq{2, ReqKind::Read, 0x2000, 8}, now);
    cache->tryAccept(MemReq{3, ReqKind::Read, 0x3000, 8}, now);
    step(3);
    EXPECT_EQ(below.reqs.size(), 2u); // Third miss is stalled.
    EXPECT_FALSE(cache->idle());
    fillLast();
    step(3);
    EXPECT_EQ(below.reqs.size(), 3u); // Freed MSHR lets it through.
}

/** Backing store that auto-fills after a fixed delay. */
class AutoBelow : public MemSink
{
  public:
    explicit AutoBelow(Cache *&up) : up_(up) {}

    bool
    tryAccept(const MemReq &req, Cycle now) override
    {
        if (req.kind == ReqKind::Read || req.kind == ReqKind::Clean)
            pending_.push_back({now + 40, req});
        return true;
    }

    void
    tick(Cycle now)
    {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->first <= now) {
                up_->handleResp(MemResp{it->second.id,
                                        it->second.kind,
                                        it->second.addr}, now);
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }

  private:
    Cache *&up_;
    std::vector<std::pair<Cycle, MemReq>> pending_;
};

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometryTest, RandomTrafficConservesResponses)
{
    const auto [size_kb, assoc] = GetParam();
    CacheParams params;
    params.name = "sweep";
    params.sizeBytes = static_cast<std::uint32_t>(size_kb) * 1024;
    params.assoc = static_cast<std::uint32_t>(assoc);
    params.latency = 2;
    params.mshrs = 4;
    params.inputQueue = 8;

    Cache *up = nullptr;
    AutoBelow below(up);
    Cache cache(params, &below);
    up = &cache;
    std::size_t responses = 0;
    cache.setRespFn([&](const MemResp &r, Cycle) {
        if (r.id != kNoReq)
            ++responses;
    });

    Rng rng(size_kb * 131 + assoc);
    Cycle now = 0;
    std::size_t accepted = 0;
    for (int i = 0; i < 400; ++i) {
        MemReq req;
        req.id = static_cast<ReqId>(i + 1);
        const auto pick = rng.below(10);
        req.kind = pick < 5 ? ReqKind::Read
                   : pick < 8 ? ReqKind::Write : ReqKind::Clean;
        req.addr = 64 * rng.below(256);
        req.size = 8;
        if (cache.tryAccept(req, now))
            ++accepted;
        below.tick(now);
        cache.tick(now);
        ++now;
    }
    for (int i = 0; i < 5000 && !cache.idle(); ++i) {
        below.tick(now);
        cache.tick(now);
        ++now;
    }
    EXPECT_TRUE(cache.idle());
    // Exactly one response per accepted core request.
    EXPECT_EQ(responses, accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values(1, 4, 48),
                       ::testing::Values(1, 2, 4)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "kb_" +
               std::to_string(std::get<1>(info.param)) + "way";
    });

/**
 * The tag array as Cache used to keep it: a valid bit per line and
 * the set index (line / lineBytes) % numSets.
 */
class ReferenceTags
{
  public:
    explicit ReferenceTags(const CacheParams &p)
        : p_(p), numSets_(p.sizeBytes / (p.lineBytes * p.assoc)),
          lines_(numSets_ * p.assoc)
    {
    }

    std::size_t numSets() const { return numSets_; }

    bool probe(Addr a) const { return find(a) != nullptr; }

    bool
    probeDirty(Addr a) const
    {
        const Line *l = find(a);
        return l && l->dirty;
    }

    /** A Read or Write processed at @p now; @return whether it hit. */
    bool
    access(Addr a, bool write, Cycle now)
    {
        Line *l = find(a);
        if (!l) {
            ++misses;
            return false;
        }
        ++hits;
        l->lastUse = now;
        l->dirty = l->dirty || write;
        return true;
    }

    void fill(Addr a, bool dirty, Cycle now) { install(lineOf(a), dirty, now); }

    void
    writeback(Addr a, Cycle now)
    {
        if (Line *l = find(a)) {
            ++hits;
            l->dirty = true;
            l->lastUse = now;
        } else {
            ++misses;
            install(lineOf(a), true, now);
        }
    }

    void
    clean(Addr a)
    {
        if (Line *l = find(a))
            l->dirty = false;
    }

    void
    preload(Addr a, bool dirty, Cycle now)
    {
        if (Line *l = find(a))
            l->dirty = l->dirty || dirty;
        else
            install(lineOf(a), dirty, now);
    }

    SnoopResult
    snoopInvalidate(Addr a)
    {
        Line *l = find(a);
        if (!l)
            return SnoopResult::Miss;
        const bool was_dirty = l->dirty;
        l->valid = false;
        l->dirty = false;
        return was_dirty ? SnoopResult::Dirty : SnoopResult::Clean;
    }

    SnoopResult
    snoopDowngrade(Addr a)
    {
        Line *l = find(a);
        if (!l)
            return SnoopResult::Miss;
        if (!l->dirty)
            return SnoopResult::Clean;
        l->dirty = false;
        return SnoopResult::Dirty;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::vector<Addr> victims;  ///< Written-back lines, in order.

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        Cycle lastUse = 0;
    };

    Addr lineOf(Addr a) const { return a & ~static_cast<Addr>(p_.lineBytes - 1); }

    Line *
    find(Addr a)
    {
        const Addr la = lineOf(a);
        const std::size_t set = (la / p_.lineBytes) % numSets_;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            Line &l = lines_[set * p_.assoc + w];
            if (l.valid && l.tag == la)
                return &l;
        }
        return nullptr;
    }

    const Line *
    find(Addr a) const
    {
        return const_cast<ReferenceTags *>(this)->find(a);
    }

    void
    install(Addr la, bool dirty, Cycle now)
    {
        const std::size_t set = (la / p_.lineBytes) % numSets_;
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            Line &l = lines_[set * p_.assoc + w];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (!victim || l.lastUse < victim->lastUse)
                victim = &l;
        }
        if (victim->valid) {
            ++evictions;
            if (victim->dirty) {
                ++writebacks;
                victims.push_back(victim->tag);
            }
        }
        *victim = Line{true, dirty, la, now};
    }

    CacheParams p_;
    std::size_t numSets_;
    std::vector<Line> lines_;
};

class CacheTagsTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>>
{
};

TEST_P(CacheTagsTest, MatchTheModuloIndexedReference)
{
    const auto [size_bytes, assoc] = GetParam();
    CacheParams params;
    params.name = "tags";
    params.sizeBytes = size_bytes;
    params.assoc = assoc;
    params.latency = 2;
    FakeBelow below;
    Cache cache(params, &below);
    cache.setRespFn([](const MemResp &, Cycle) {});
    ReferenceTags ref(params);

    // Four sets crowded past their ways, plus scattered lines, at
    // random byte offsets and with high address bits set.
    Rng rng(size_bytes + assoc);
    const std::uint64_t sets = ref.numSets();
    std::vector<Addr> pool;
    for (int s = 0; s < 4; ++s) {
        const std::uint64_t set = rng.below(sets);
        for (std::uint32_t k = 0; k < assoc + 3; ++k) {
            pool.push_back((set + sets * rng.below(1u << 24)) * 64 +
                           rng.below(64));
        }
    }
    for (int i = 0; i < 32; ++i)
        pool.push_back(rng.below(1ull << 40));

    // Warm every line at cycle 0, as pre-run warmup does: the crowded
    // sets fill with ways tied on LRU age.
    for (const Addr p : pool) {
        cache.preload(p);
        ref.preload(p, false, 0);
    }
    Cycle now = 1;
    ReqId id = 1;
    for (int step = 0; step < 3000; ++step) {
        const Addr a = pool[rng.below(pool.size())];
        const std::uint64_t op = rng.below(8);
        SCOPED_TRACE("step " + std::to_string(step) + ", op " +
                     std::to_string(op));
        if (op < 5) {
            const bool write = op >= 3;
            ASSERT_TRUE(cache.tryAccept(
                MemReq{id++, write ? ReqKind::Write : ReqKind::Read, a, 8},
                now));
            const std::size_t sent = below.reqs.size();
            cache.tick(now);
            if (!ref.access(a, write, now)) {
                ASSERT_EQ(below.reqs.size(), sent + 1);
                const MemReq fill = below.reqs.back();
                ASSERT_EQ(fill.kind, ReqKind::Read);
                cache.handleResp(MemResp{kNoReq, ReqKind::Read, fill.addr},
                                 ++now);
                ref.fill(a, write, now);
            }
        } else if (op == 5) {
            ASSERT_TRUE(cache.tryAccept(
                MemReq{kNoReq, ReqKind::Writeback, a, 64}, now));
            cache.tick(now);
            ref.writeback(a, now);
        } else if (op == 6) {
            ASSERT_TRUE(
                cache.tryAccept(MemReq{id, ReqKind::Clean, a, 64}, now));
            cache.tick(now);
            ref.clean(a);
            cache.handleResp(MemResp{id++, ReqKind::Clean, a}, ++now);
        } else {
            switch (rng.below(3)) {
              case 0: {
                const bool dirty = rng.below(2) == 1;
                cache.preload(a, now, dirty);
                ref.preload(a, dirty, now);
                break;
              }
              case 1:
                ASSERT_EQ(cache.snoopInvalidate(a), ref.snoopInvalidate(a));
                break;
              default:
                ASSERT_EQ(cache.snoopDowngrade(a), ref.snoopDowngrade(a));
                break;
            }
        }
        for (int i = 0; i < 8 && !cache.idle(); ++i)
            cache.tick(++now);
        ASSERT_TRUE(cache.idle());
        ++now;

        const CacheStats &st = cache.stats();
        ASSERT_EQ(st.hits, ref.hits);
        ASSERT_EQ(st.misses, ref.misses);
        ASSERT_EQ(st.evictions, ref.evictions);
        ASSERT_EQ(st.writebacks, ref.writebacks);
        std::vector<Addr> victims;
        for (const MemReq &r : below.reqs) {
            if (r.kind == ReqKind::Writeback)
                victims.push_back(r.addr);
        }
        ASSERT_EQ(victims, ref.victims);
        for (const Addr p : pool) {
            ASSERT_EQ(cache.probe(p), ref.probe(p)) << std::hex << p;
            ASSERT_EQ(cache.probeDirty(p), ref.probeDirty(p))
                << std::hex << p;
        }
    }
    EXPECT_GT(ref.evictions, 0u);
    EXPECT_GT(ref.writebacks, 0u);
}

// The Table I L1D and L3 (power-of-two set counts, indexed by mask),
// the 48 KiB L1D at 1, 2 and 4 ways and a 3 MiB 16-way L3 (indexed
// by the modulo fallback).
INSTANTIATE_TEST_SUITE_P(
    SetCounts, CacheTagsTest,
    ::testing::Values(std::tuple{48u * 1024, 3u},
                      std::tuple{1024u * 1024, 16u},
                      std::tuple{48u * 1024, 1u},
                      std::tuple{48u * 1024, 2u},
                      std::tuple{48u * 1024, 4u},
                      std::tuple{3u * 1024 * 1024, 16u}),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param) /
                              (64 * std::get<1>(info.param))) + "sets";
    });

TEST_F(CacheFixture, IdleReflectsOutstandingWork)
{
    EXPECT_TRUE(cache->idle());
    cache->tryAccept(MemReq{1, ReqKind::Read, 0x1000, 8}, now);
    EXPECT_FALSE(cache->idle());
    step(2);
    fillLast();
    step(4);
    EXPECT_TRUE(cache->idle());
}

} // namespace
} // namespace ede
