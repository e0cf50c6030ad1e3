/**
 * @file
 * From-scratch references for DurableSetChecker, shared by the one-core
 * and N-core checker tests.
 *
 * check() reaches each state incrementally from the one before, through
 * an undo stack, and dedups on a line-sum StateKey; tornCandidates()
 * walks the set once over flat per-node marks.  The helpers here hold
 * both to the from-scratch definitions: every state re-materialized
 * from the setup image, content classes decided by contentEquals, and
 * tornCandidates() over hash sets built from the whole set.
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
