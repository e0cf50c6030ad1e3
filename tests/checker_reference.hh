/**
 * @file
 * From-scratch references for DurableSetChecker and the persist order,
 * shared by the one-core and N-core checker tests.
 *
 * check() reaches each state incrementally from the one before, through
 * an undo stack, and dedups on a line-sum StateKey; tornCandidates()
 * walks the set once over flat per-node marks.  The helpers here hold
 * both to the from-scratch definitions: every state re-materialized
 * from the setup image, content classes decided by contentEquals, and
 * tornCandidates() over hash sets built from the whole set.
 *
 * PersistOrderGraph::finalize() keeps only each node's covering
 * preds.  finalizeKeepingEveryEdge() is the sort/unique normalization
 * that kept every edge, and expectCoveringOrderMatchesReference()
 * holds the two graphs to the same answers.
 */

#ifndef EDE_TESTS_CHECKER_REFERENCE_HH
#define EDE_TESTS_CHECKER_REFERENCE_HH

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "fault/model_check/checker.hh"

namespace ede::checker_reference {

/** DurableSetChecker::tornCandidates() over whole-set hash sets. */
inline std::vector<std::size_t>
tornCandidates(const PersistOrderGraph &graph,
               const std::vector<std::size_t> &postSetup, std::size_t cap)
{
    std::vector<std::size_t> out;
    if (postSetup.empty() || cap == 0)
        return out;
    Cycle maxAcc = 0;
    for (std::size_t i : postSetup)
        maxAcc = std::max(maxAcc, graph.nodes[i].accept);
    std::unordered_set<std::size_t> hasSucc;
    std::unordered_map<Addr, std::size_t> lastOfLine;
    const Addr cacheMask = ~static_cast<Addr>(63);
    for (std::size_t i : postSetup) {
        for (std::size_t p : graph.nodes[i].postSetupPreds)
            hasSucc.insert(p);
        lastOfLine[graph.nodes[i].addr & cacheMask] = i;
    }
    for (auto it = postSetup.rbegin();
         it != postSetup.rend() && out.size() < cap; ++it) {
        const std::size_t i = *it;
        const PersistNode &node = graph.nodes[i];
        if (node.size <= 8)
            continue;
        if (hasSucc.count(i))
            continue;
        if (lastOfLine[node.addr & cacheMask] != i)
            continue;
        if (node.mediaCycle != kNoCycle && node.mediaCycle <= maxAcc)
            continue;
        out.push_back(i);
    }
    return out;
}

/** Every enumerated set gets the reference's candidates, caps 1-4. */
inline void
expectFlatTornCandidates(const PersistOrderGraph &graph,
                         DurableSetChecker &checker,
                         const std::string &label)
{
    std::size_t sets = 0;
    std::size_t candidates = 0;
    forEachDurableSet(graph, {}, [&](const DurableSetView &view) {
        for (std::size_t cap = 1; cap <= 4; ++cap) {
            const std::vector<std::size_t> want =
                tornCandidates(graph, view.postSetup, cap);
            EXPECT_EQ(checker.tornCandidates(view.postSetup, cap), want)
                << label << " set " << sets << " cap " << cap;
            candidates += want.size();
        }
        ++sets;
        return true;
    });
    EXPECT_GT(sets, 1u) << label;
    EXPECT_GT(candidates, 0u) << label;
}

/**
 * PersistOrderGraph::finalize() before covering edges: sort and dedup
 * each pred list and drop (and count) forward edges, keeping every
 * edge the walk derived.
 */
inline void
finalizeKeepingEveryEdge(PersistOrderGraph &g)
{
    const std::size_t n = g.nodes.size();
    g.preSetupCount = 0;
    while (g.preSetupCount < n && g.nodes[g.preSetupCount].preSetup)
        ++g.preSetupCount;
    g.minSucc.assign(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        PersistNode &node = g.nodes[i];
        std::sort(node.preds.begin(), node.preds.end());
        node.preds.erase(
            std::unique(node.preds.begin(), node.preds.end()),
            node.preds.end());
        const auto fwd = std::lower_bound(node.preds.begin(),
                                          node.preds.end(), i);
        g.stats.nonmonotone += node.preds.end() - fwd;
        node.preds.erase(fwd, node.preds.end());
        node.postSetupPreds.clear();
        for (std::size_t p : node.preds) {
            if (p >= g.preSetupCount)
                node.postSetupPreds.push_back(p);
            g.minSucc[p] = std::min(g.minSucc[p], i);
        }
    }
}

/** Each node's ancestors -- every node a path of preds leads from. */
class Ancestors
{
  public:
    /** @p g must be finalized: every pred points backward. */
    explicit Ancestors(const PersistOrderGraph &g)
        : words_((g.nodes.size() + 63) / 64),
          bits_(g.nodes.size() * words_, 0)
    {
        for (std::size_t i = 0; i < g.nodes.size(); ++i) {
            for (std::size_t p : g.nodes[i].preds) {
                bits_[i * words_ + p / 64] |= std::uint64_t{1} << (p % 64);
                for (std::size_t k = 0; k < words_; ++k)
                    bits_[i * words_ + k] |= bits_[p * words_ + k];
            }
        }
    }

    bool
    reaches(std::size_t from, std::size_t to) const
    {
        return (bits_[to * words_ + from / 64] >> (from % 64)) & 1;
    }

    bool operator==(const Ancestors &) const = default;

  private:
    std::size_t words_;
    std::vector<std::uint64_t> bits_;
};

/** Persist events matching a hand-built graph's nodes (bytes: i + 1). */
inline std::vector<PersistEvent>
eventsOf(const PersistOrderGraph &graph)
{
    std::vector<PersistEvent> events(graph.nodes.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].addr = graph.nodes[i].addr;
        events[i].size = graph.nodes[i].size;
        events[i].cycle = graph.nodes[i].accept;
        events[i].bytes.assign(graph.nodes[i].size,
                               static_cast<std::uint8_t>(i + 1));
    }
    return events;
}

/**
 * Finalize @p raw both ways -- finalize() and finalizeKeepingEveryEdge()
 * -- and require the same answers from both graphs:
 *
 *  - preSetupCount, minSucc and stats (nonmonotone included) equal;
 *    finalize() run again changes nothing;
 *  - the covering preds are a subset of every edge, none reachable
 *    from another, with the same ancestors as every edge gives;
 *  - forEachDurableSet emits the same sequence, unbounded and under a
 *    two-line drain budget (up to @p maxStates sets each, 0: all);
 *  - isLegalDurableSet agrees on random subsets and on each of the
 *    first enumerated ideals with one event toggled, under both
 *    budgets;
 *  - DurableSetChecker::tornCandidates agrees on every ideal, caps 1-4.
 *
 * @return the implied edges finalize() dropped.
 */
inline std::size_t
expectCoveringOrderMatchesReference(const PersistOrderGraph &raw,
                                    const std::vector<PersistEvent> &events,
                                    const MemoryImage &baseline,
                                    const std::string &label,
                                    std::uint64_t maxStates = 0)
{
    PersistOrderGraph every = raw;
    finalizeKeepingEveryEdge(every);
    PersistOrderGraph covering = raw;
    covering.finalize();
    const std::size_t n = raw.nodes.size();

    EXPECT_EQ(covering.preSetupCount, every.preSetupCount) << label;
    EXPECT_EQ(covering.minSucc, every.minSucc) << label;
    auto statsOf = [](const PersistOrderStats &s) {
        return std::vector<std::uint64_t>{
            s.sameLine, s.edk,      s.keyChain,  s.fence,
            s.lineGate, s.nonmonotone, s.crossWait, s.crossLine};
    };
    EXPECT_EQ(statsOf(covering.stats), statsOf(every.stats)) << label;

    PersistOrderGraph again = covering;
    again.finalize();
    EXPECT_EQ(statsOf(again.stats), statsOf(covering.stats)) << label;
    EXPECT_EQ(again.minSucc, covering.minSucc) << label;

    const Ancestors ancestors(every);
    EXPECT_TRUE(Ancestors(covering) == ancestors) << label;
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<std::size_t> &kept = covering.nodes[i].preds;
        const std::vector<std::size_t> &all = every.nodes[i].preds;
        EXPECT_EQ(again.nodes[i].preds, kept) << label << " node " << i;
        EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end()))
            << label << " node " << i;
        EXPECT_TRUE(std::includes(all.begin(), all.end(), kept.begin(),
                                  kept.end()))
            << label << " node " << i;
        dropped += all.size() - kept.size();
        for (std::size_t p : kept) {
            for (std::size_t q : kept) {
                EXPECT_FALSE(p != q && ancestors.reaches(p, q))
                    << label << " node " << i << ": pred " << p
                    << " reaches pred " << q;
            }
        }
        std::vector<std::size_t> postSetup;
        for (std::size_t p : kept) {
            if (p >= covering.preSetupCount)
                postSetup.push_back(p);
        }
        EXPECT_EQ(covering.nodes[i].postSetupPreds, postSetup)
            << label << " node " << i;
    }

    // Same durable sets, in the same order.
    std::vector<std::vector<std::size_t>> ideals;
    for (std::uint32_t drain : {FaultPlan::kDrainAll, 2u}) {
        EnumerationLimits limits;
        limits.drainLines = drain;
        limits.maxStates = maxStates;
        std::vector<std::vector<std::size_t>> want;
        forEachDurableSet(every, limits, [&](const DurableSetView &v) {
            want.push_back(v.postSetup);
            return true;
        });
        std::vector<std::vector<std::size_t>> got;
        forEachDurableSet(covering, limits, [&](const DurableSetView &v) {
            got.push_back(v.postSetup);
            return true;
        });
        EXPECT_EQ(got, want) << label << " drain " << drain;
        if (drain == FaultPlan::kDrainAll)
            ideals = std::move(want);
    }
    EXPECT_GT(ideals.size(), 1u) << label;

    // Legality on sets that are and are not ideals.
    Rng rng(0x1e6a1ull + n);
    std::vector<std::vector<std::size_t>> probes;
    for (int k = 0; k < 400; ++k) {
        std::vector<std::size_t> set;
        for (std::size_t i = every.preSetupCount; i < n; ++i) {
            if (rng.chance(0.5))
                set.push_back(i);
        }
        probes.push_back(std::move(set));
    }
    for (std::size_t k = 0; k < std::min<std::size_t>(ideals.size(), 400);
         ++k) {
        if (n == every.preSetupCount)
            break;
        std::vector<std::size_t> set = ideals[k];
        const std::size_t e = every.preSetupCount +
                              rng.below(n - every.preSetupCount);
        const auto at = std::lower_bound(set.begin(), set.end(), e);
        if (at != set.end() && *at == e)
            set.erase(at);
        else
            set.insert(at, e);
        probes.push_back(std::move(set));
    }
    std::size_t legal = 0;
    for (const std::vector<std::size_t> &set : probes) {
        for (std::uint32_t drain : {FaultPlan::kDrainAll, 2u}) {
            const bool want = isLegalDurableSet(every, drain, set);
            EXPECT_EQ(isLegalDurableSet(covering, drain, set), want)
                << label << " drain " << drain;
            legal += want;
        }
    }
    EXPECT_GT(legal, 0u) << label;
    EXPECT_LT(legal, 2 * probes.size()) << label;

    // Torn candidates of every ideal.
    auto judge = [](MemoryImage &) {
        return DurableSetChecker::StateVerdict{};
    };
    DurableSetChecker everyChecker(events, baseline, every, judge);
    DurableSetChecker coveringChecker(events, baseline, covering, judge);
    std::size_t candidates = 0;
    for (const std::vector<std::size_t> &set : ideals) {
        for (std::size_t cap = 1; cap <= 4; ++cap) {
            const std::vector<std::size_t> want =
                everyChecker.tornCandidates(set, cap);
            EXPECT_EQ(coveringChecker.tornCandidates(set, cap), want)
                << label << " cap " << cap;
            candidates += want.size();
        }
    }
    EXPECT_GT(candidates, 0u) << label;
    return dropped;
}

/** One state check() can be asked about. */
struct CrashState
{
    std::vector<std::size_t> set;
    std::size_t torn = kNoEvent;
    std::uint64_t mask = 0;
};

/**
 * Every durable set of @p graph in enumeration order, each followed
 * by the torn variants checkDurableSets() adds to it.
 */
inline std::vector<CrashState>
latticeStates(const PersistOrderGraph &graph, DurableSetChecker &checker)
{
    std::vector<CrashState> out;
    forEachDurableSet(graph, {}, [&](const DurableSetView &view) {
        out.push_back({view.postSetup});
        for (std::size_t cand : checker.tornCandidates(view.postSetup, 4)) {
            const std::size_t chunks = (graph.nodes[cand].size + 7) / 8;
            for (TearKind kind : {TearKind::Prefix, TearKind::Suffix,
                                  TearKind::Interleaved}) {
                FaultPlan tp;
                tp.seed = cand * 8 + static_cast<std::uint64_t>(kind);
                tp.tear = kind;
                out.push_back(
                    {view.postSetup, cand, tornChunkMask(tp, chunks)});
            }
        }
        return true;
    });
    return out;
}

/**
 * @p states reordered to stress the undo stack: two tears the check
 * loop never asks for are added -- the oldest event of a set, and an
 * event whose 64 B line a later event of the set rewrites -- then
 * every fifth state is repeated and the whole list shuffled with a
 * fixed seed.
 */
inline std::vector<CrashState>
shuffledStates(const PersistOrderGraph &graph,
               std::vector<CrashState> states, const std::string &label)
{
    const Addr lineMask = ~static_cast<Addr>(63);
    bool olderTear = false;
    bool rewrittenTear = false;
    std::vector<CrashState> extra;
    for (const CrashState &s : states) {
        if (s.torn != kNoEvent || s.set.size() < 2)
            continue;
        if (!olderTear && graph.nodes[s.set.front()].size > 8) {
            extra.push_back({s.set, s.set.front(), 0x5});
            olderTear = true;
        }
        for (std::size_t a = 0; a < s.set.size() && !rewrittenTear; ++a) {
            for (std::size_t b = a + 1; b < s.set.size(); ++b) {
                if ((graph.nodes[s.set[a]].addr & lineMask) ==
                    (graph.nodes[s.set[b]].addr & lineMask)) {
                    extra.push_back({s.set, s.set[a], 0x3});
                    rewrittenTear = true;
                    break;
                }
            }
        }
    }
    EXPECT_TRUE(olderTear) << label << ": no set to tear at its oldest";
    EXPECT_TRUE(rewrittenTear)
        << label << ": no set rewrites a line it could tear";
    states.insert(states.end(), extra.begin(), extra.end());
    const std::size_t n = states.size();
    for (std::size_t i = 0; i < n; i += 5)
        states.push_back(states[i]);

    std::uint64_t rng = 0x5eed1e55ull;
    for (std::size_t i = states.size(); i > 1; --i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(states[i - 1], states[(rng >> 33) % i]);
    }
    return states;
}

/**
 * Check @p states in order through a fresh incremental checker and
 * compare every answer with the from-scratch path:
 *
 *  - each state's key is StateKey::of() its re-materialized image;
 *  - two states share a key iff their images are contentEquals (and
 *    the canonical hash reported for violations separates them too);
 *  - a state is a duplicate iff an earlier state had equal content;
 *  - a new state is judged on exactly its re-materialized image, with
 *    the verdict the judge gives that image, and carries the canonical
 *    hash iff it violates.
 */
inline void
expectIncrementalMatchesReference(
    const std::vector<PersistEvent> &events, const MemoryImage &baseline,
    const PersistOrderGraph &graph,
    const DurableSetChecker::StateJudge &judge,
    const std::vector<CrashState> &states, const std::string &label)
{
    const DurableSetChecker ref(events, baseline, graph, judge);
    MemoryImage judged;
    std::size_t judgeCalls = 0;
    DurableSetChecker inc(events, baseline, graph,
                          [&](MemoryImage &img) {
                              judged = img;
                              ++judgeCalls;
                              return judge(img);
                          });

    // Content classes: one image and key each, found by canonical hash
    // and confirmed by contentEquals.
    std::vector<MemoryImage> classImage;
    std::vector<StateKey> classKey;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> byHash;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> byKey;
    std::size_t duplicates = 0;
    for (std::size_t i = 0; i < states.size(); ++i) {
        const CrashState &s = states[i];
        const std::string what = label + " state " + std::to_string(i);
        const MemoryImage img = ref.materialize(s.set, s.torn, s.mask);
        const std::size_t callsBefore = judgeCalls;
        const DurableSetChecker::StateVerdict v =
            inc.check(s.set, s.torn, s.mask);
        EXPECT_TRUE(v.key == StateKey::of(img)) << what;

        const std::uint64_t hash = img.canonicalContentHash();
        std::size_t cls = classImage.size();
        for (std::size_t c : byHash[hash]) {
            if (classImage[c].contentEquals(img))
                cls = c;
        }
        EXPECT_EQ(v.duplicate, cls < classImage.size()) << what;
        if (cls < classImage.size()) {
            ++duplicates;
            EXPECT_TRUE(v.key == classKey[cls]) << what;
            EXPECT_EQ(judgeCalls, callsBefore) << what;
            continue;
        }
        // New content: its canonical hash and its key are its own.
        EXPECT_TRUE(byHash[hash].empty()) << what << ": hash collision";
        const auto [it, fresh] =
            byKey.try_emplace({v.key.lo, v.key.hi}, cls);
        EXPECT_TRUE(fresh) << what << ": key shared with class "
                           << it->second;
        byHash[hash].push_back(cls);
        classImage.push_back(img);
        classKey.push_back(v.key);

        ASSERT_EQ(judgeCalls, callsBefore + 1) << what;
        EXPECT_TRUE(judged.contentEquals(img)) << what;
        MemoryImage copy = img;
        const DurableSetChecker::StateVerdict want = ref.judge(copy);
        EXPECT_EQ(v.appOk, want.appOk) << what;
        EXPECT_EQ(v.entriesTorn, want.entriesTorn) << what;
        EXPECT_STREQ(v.invariant, want.invariant) << what;
        EXPECT_EQ(v.rollbackTargets, want.rollbackTargets) << what;
        EXPECT_EQ(v.imageHash, want.invariant ? hash : 0u) << what;
    }
    EXPECT_EQ(inc.uniqueImages(), classImage.size()) << label;
    EXPECT_GT(duplicates, 0u) << label;
}

} // namespace ede::checker_reference

#endif // EDE_TESTS_CHECKER_REFERENCE_HH
