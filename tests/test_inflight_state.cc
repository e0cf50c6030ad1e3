/**
 * @file
 * The out-of-order core's flat in-flight state: the sliding-bitset
 * seq set against std::set under a seeded operation stream, and the
 * ROB ring's lookups across retire, squash, index collisions and
 * wrap-around.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "pipeline/inflight_state.hh"

namespace ede {
namespace {

std::vector<SeqNum>
walk(const SeqSet &set)
{
    std::vector<SeqNum> out;
    for (SeqNum s : set)
        out.push_back(s);
    return out;
}

TEST(SeqSet, MatchesStdSetUnderASeededStream)
{
    // A 128-seq span hint: a ring of four words (256 seqs).
    SeqSet set(128);
    std::set<SeqNum> ref;
    Rng rng(15);
    SeqNum next = 1;          // Inserts only ever go at or above this.
    std::vector<SeqNum> gone; // Erased members, probed later.
    std::size_t wide_gaps = 0, squashes = 0, walks = 0;

    auto any_member = [&] {
        return *std::next(ref.begin(),
                          static_cast<long>(rng.below(ref.size())));
    };
    auto probe = [&](SeqNum s) {
        return set.contains(s) == (ref.count(s) == 1);
    };

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t kind = rng.below(100);
        if (kind < 45) {
            // Dispatch: mostly dense, sometimes after a squash gap,
            // now and then past the whole ring.
            SeqNum gap = rng.below(3);
            if (rng.chance(0.02))
                gap = rng.between(64, 240);
            if (rng.chance(0.003)) {
                gap = rng.between(300, 5000);
                wide_gaps += ref.empty() ? 0 : 1;
            }
            next += gap;
            set.insert(next);
            ref.insert(next);
            ++next;
        } else if (kind < 97) {
            // Complete: the oldest, any member, or a seq not held.
            SeqNum s = rng.below(next + 64);
            if (!ref.empty() && rng.chance(0.7))
                s = rng.chance(0.5) ? *ref.begin() : any_member();
            set.erase(s);
            if (ref.erase(s))
                gone.push_back(s);
        } else {
            // Squash above a member, or above any seq at all.
            const SeqNum pivot = !ref.empty() && rng.chance(0.8)
                ? any_member()
                : rng.below(next + 64);
            set.eraseAbove(pivot);
            for (auto it = ref.upper_bound(pivot); it != ref.end();) {
                gone.push_back(*it);
                it = ref.erase(it);
            }
            ++squashes;
        }

        ASSERT_EQ(set.empty(), ref.empty()) << "op " << op;
        ASSERT_EQ(set.min(), ref.empty() ? SeqSet::kNone : *ref.begin())
            << "op " << op;
        ASSERT_TRUE(probe(kNoSeq));
        ASSERT_TRUE(probe(rng.below(next + 128))) << "op " << op;
        if (!gone.empty()) {
            ASSERT_TRUE(probe(gone[rng.below(gone.size())]));
        }
        if (!ref.empty()) {
            // Below the window's first member and above its last.
            ASSERT_TRUE(probe(rng.below(*ref.begin()))) << "op " << op;
            ASSERT_TRUE(probe(*ref.rbegin() + 1 + rng.below(5000)));
        }
        if (op % 50 == 0) {
            ASSERT_EQ(walk(set), std::vector<SeqNum>(ref.begin(),
                                                     ref.end()))
                << "op " << op;
            ++walks;
        }
    }
    // The stream reached the paths it is meant to cover.
    EXPECT_GT(wide_gaps, 20u);
    EXPECT_GT(squashes, 1000u);
    EXPECT_GT(gone.size(), 50000u);
    EXPECT_EQ(walks, 4000u);
}

TEST(SeqSet, EraseAboveAtWordEdges)
{
    SeqSet set;
    for (SeqNum s : {63u, 64u, 127u, 128u, 191u})
        set.insert(s);
    set.eraseAbove(127);
    EXPECT_EQ(walk(set), (std::vector<SeqNum>{63, 64, 127}));
    set.eraseAbove(63);
    EXPECT_EQ(walk(set), (std::vector<SeqNum>{63}));
    set.eraseAbove(62);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.min(), SeqSet::kNone);
    EXPECT_EQ(set.begin(), set.end());
}

TEST(Rob, RetiredAndSquashedSeqsAreAbsent)
{
    Rob rob(4); // An 8-entry index.
    for (SeqNum s = 1; s <= 4; ++s)
        rob.push(s).traceIdx = s;
    EXPECT_TRUE(rob.full());
    rob.popFront(); // Retire 1.
    rob.popBack();  // Squash 4.
    EXPECT_EQ(rob.find(1), nullptr);
    EXPECT_EQ(rob.find(4), nullptr);
    ASSERT_NE(rob.find(2), nullptr);
    EXPECT_EQ(rob.find(2)->traceIdx, 2u);

    // A freed slot goes to a new seq, 9, on 1's index entry.
    rob.push(9).traceIdx = 9;
    EXPECT_EQ(rob.find(1), nullptr);
    ASSERT_NE(rob.find(9), nullptr);
    EXPECT_EQ(rob.find(9)->traceIdx, 9u);
    // Never pushed, but on 9's index entry.
    EXPECT_EQ(rob.find(17), nullptr);
    EXPECT_EQ(rob.find(kNoSeq), nullptr);

    rob.push(10).traceIdx = 10; // Reuses squashed 4's slot.
    EXPECT_EQ(rob.find(4), nullptr);
    EXPECT_EQ(rob.find(10)->traceIdx, 10u);
    EXPECT_EQ(rob.front().seq, 2u);
    EXPECT_EQ(rob.back().seq, 10u);
}

TEST(Rob, LiveIndexCollisionKeepsEveryEntryFindable)
{
    // Squash gaps put four live seqs on one entry of the 8-entry
    // index (and of its 16-, 32-, 64- and 128-entry doublings).
    Rob rob(4);
    const std::array<SeqNum, 4> seqs{3, 67, 131, 195};
    std::array<InflightInst *, 4> slots{};
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        slots[i] = &rob.push(seqs[i]);
        slots[i]->traceIdx = i;
    }
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        EXPECT_EQ(rob.find(seqs[i]), slots[i]) << seqs[i];
        EXPECT_EQ(slots[i]->traceIdx, i);
    }
    EXPECT_EQ(rob.find(259), nullptr);

    // Retiring and squashing free only their own entries.
    rob.popFront();
    rob.popBack();
    EXPECT_EQ(rob.find(3), nullptr);
    EXPECT_EQ(rob.find(195), nullptr);
    EXPECT_EQ(rob.find(67), slots[1]);
    EXPECT_EQ(rob.find(131), slots[2]);
}

TEST(Rob, SlotReferencesSurviveWrapAround)
{
    // Random dispatch (with squash gaps), retire and squash on a
    // six-slot ring, against a deque of (seq, slot address): every
    // live entry keeps the address push gave it, through thousands of
    // trips around the ring and every index doubling.
    Rob rob(6);
    std::deque<std::pair<SeqNum, InflightInst *>> ref;
    std::vector<SeqNum> gone;
    Rng rng(7);
    SeqNum next = 1;
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t kind = rng.below(10);
        if (kind < 5 && !rob.full()) {
            if (rng.chance(0.1))
                next += rng.between(1, 200);
            InflightInst &in = rob.push(next);
            in.traceIdx = next; // A marker the slot must keep.
            ref.emplace_back(next++, &in);
        } else if (kind < 8 && !ref.empty()) {
            gone.push_back(ref.front().first);
            rob.popFront();
            ref.pop_front();
        } else if (!ref.empty()) {
            gone.push_back(ref.back().first);
            rob.popBack();
            ref.pop_back();
        }

        ASSERT_EQ(rob.size(), ref.size());
        std::size_t i = 0;
        for (const InflightInst &in : rob) {
            ASSERT_EQ(&in, ref[i].second) << "op " << op;
            ASSERT_EQ(&rob[i], ref[i].second);
            ASSERT_EQ(rob.find(ref[i].first), ref[i].second);
            ASSERT_EQ(in.seq, ref[i].first);
            ASSERT_EQ(in.traceIdx, ref[i].first);
            ++i;
        }
        ASSERT_EQ(i, ref.size());
        if (!gone.empty()) {
            ASSERT_EQ(rob.find(gone[rng.below(gone.size())]), nullptr);
        }
    }
}

} // namespace
} // namespace ede
