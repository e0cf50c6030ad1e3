/**
 * @file
 * Unit tests for undo-log recovery over crash images.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "nvm/undo_log.hh"

namespace ede {
namespace {

UndoLogLayout
layout()
{
    UndoLogLayout l;
    l.stateAddr = 2ull << 30;
    l.entriesBase = l.stateAddr + 64;
    l.capacity = 16;
    return l;
}

void
putEntry(MemoryImage &img, const UndoLogLayout &l, std::uint64_t i,
         Addr target, std::uint64_t old_val)
{
    img.write<std::uint64_t>(l.entryAddr(i),
                             sealUndoEntry(target, old_val));
    img.write<std::uint64_t>(l.entryAddr(i) + 8, old_val);
}

TEST(UndoLog, EmptyActiveLogIsANoop)
{
    MemoryImage img;
    const auto l = layout();
    img.write<std::uint64_t>(l.stateAddr, kTxActive);
    const auto r = recoverUndoLog(img, l);
    EXPECT_FALSE(r.sawCommitted);
    EXPECT_EQ(r.entriesApplied, 0u);
    EXPECT_EQ(r.entriesZeroed, 0u);
}

TEST(UndoLog, ActiveLogRollsBack)
{
    MemoryImage img;
    const auto l = layout();
    const Addr x = l.stateAddr + 0x10000;
    img.write<std::uint64_t>(x, 999);        // Uncommitted new value.
    putEntry(img, l, 0, x, 5);               // Old value was 5.
    const auto r = recoverUndoLog(img, l);
    EXPECT_FALSE(r.sawCommitted);
    EXPECT_EQ(r.entriesApplied, 1u);
    EXPECT_EQ(img.read<std::uint64_t>(x), 5u);
    // The log is left empty and active.
    EXPECT_EQ(img.read<std::uint64_t>(l.entryAddr(0)), 0u);
    EXPECT_EQ(img.read<std::uint64_t>(l.stateAddr), kTxActive);
}

TEST(UndoLog, RollbackAppliesNewestFirst)
{
    MemoryImage img;
    const auto l = layout();
    const Addr x = l.stateAddr + 0x10000;
    img.write<std::uint64_t>(x, 3);
    putEntry(img, l, 0, x, 1); // First write logged old value 1.
    putEntry(img, l, 1, x, 2); // Second write logged old value 2.
    recoverUndoLog(img, l);
    // Rolling back must restore the OLDEST value.
    EXPECT_EQ(img.read<std::uint64_t>(x), 1u);
}

TEST(UndoLog, CommittedLogIsNotApplied)
{
    MemoryImage img;
    const auto l = layout();
    const Addr x = l.stateAddr + 0x10000;
    img.write<std::uint64_t>(x, 999);
    putEntry(img, l, 0, x, 5);
    img.write<std::uint64_t>(l.stateAddr, kTxCommitted);
    const auto r = recoverUndoLog(img, l);
    EXPECT_TRUE(r.sawCommitted);
    EXPECT_EQ(r.entriesApplied, 0u);
    EXPECT_EQ(r.entriesZeroed, 1u);
    // Data keeps the committed value; log is truncated.
    EXPECT_EQ(img.read<std::uint64_t>(x), 999u);
    EXPECT_EQ(img.read<std::uint64_t>(l.stateAddr), kTxActive);
}

TEST(UndoLog, SparseValidEntriesHandled)
{
    MemoryImage img;
    const auto l = layout();
    const Addr x = l.stateAddr + 0x10000;
    const Addr y = x + 64;
    img.write<std::uint64_t>(x, 10);
    img.write<std::uint64_t>(y, 20);
    putEntry(img, l, 2, x, 1);
    putEntry(img, l, 7, y, 2);
    const auto r = recoverUndoLog(img, l);
    EXPECT_EQ(r.entriesApplied, 2u);
    EXPECT_EQ(img.read<std::uint64_t>(x), 1u);
    EXPECT_EQ(img.read<std::uint64_t>(y), 2u);
}

TEST(UndoLog, TornValueWordIsDetectedAndSkipped)
{
    MemoryImage img;
    const auto l = layout();
    const Addr x = l.stateAddr + 0x10000;
    const Addr y = x + 64;
    img.write<std::uint64_t>(x, 10);
    img.write<std::uint64_t>(y, 20);
    putEntry(img, l, 0, x, 1);
    // Entry 1 tore between its halves: the addr word was sealed for
    // old value 2, but the value word never persisted.
    img.write<std::uint64_t>(l.entryAddr(1), sealUndoEntry(y, 2));
    img.write<std::uint64_t>(l.entryAddr(1) + 8, 777);
    const auto r = recoverUndoLog(img, l);
    EXPECT_EQ(r.entriesTorn, 1u);
    EXPECT_EQ(r.entriesApplied, 1u);
    // The intact entry rolled back; the torn one was not replayed.
    EXPECT_EQ(img.read<std::uint64_t>(x), 1u);
    EXPECT_EQ(img.read<std::uint64_t>(y), 20u);
    // Torn entries are truncated with the rest.
    EXPECT_EQ(img.read<std::uint64_t>(l.entryAddr(1)), 0u);
    EXPECT_EQ(img.read<std::uint64_t>(l.stateAddr), kTxActive);
}

TEST(UndoLog, TornAddrWordIsDetectedAndSkipped)
{
    MemoryImage img;
    const auto l = layout();
    const Addr y = l.stateAddr + 0x10000;
    img.write<std::uint64_t>(y, 20);
    // The value word persisted but the addr word's checksum did not:
    // the image holds the bare target address with zero seal bits.
    ASSERT_NE(undoEntryChecksum(y, 2), 0u);
    img.write<std::uint64_t>(l.entryAddr(0), y);
    img.write<std::uint64_t>(l.entryAddr(0) + 8, 2);
    const auto r = recoverUndoLog(img, l);
    EXPECT_EQ(r.entriesTorn, 1u);
    EXPECT_EQ(r.entriesApplied, 0u);
    EXPECT_EQ(img.read<std::uint64_t>(y), 20u);
    EXPECT_EQ(img.read<std::uint64_t>(l.entryAddr(0)), 0u);
}

TEST(UndoLog, SealRoundTrips)
{
    const Addr target = (3ull << 30) + 0x1238;
    const std::uint64_t sealed = sealUndoEntry(target, 41);
    EXPECT_EQ(undoEntryTarget(sealed), target);
    EXPECT_TRUE(undoEntryIntact(sealed, 41));
    EXPECT_FALSE(undoEntryIntact(sealed, 42));
    EXPECT_FALSE(undoEntryIntact(sealed ^ (1ull << 50), 41));
}

TEST(UndoLog, RecoveryIsIdempotent)
{
    MemoryImage img;
    const auto l = layout();
    const Addr x = l.stateAddr + 0x10000;
    img.write<std::uint64_t>(x, 9);
    putEntry(img, l, 0, x, 4);
    recoverUndoLog(img, l);
    const auto r2 = recoverUndoLog(img, l);
    EXPECT_EQ(r2.entriesApplied, 0u);
    EXPECT_EQ(img.read<std::uint64_t>(x), 4u);
}

/**
 * recoverUndoLog as it read the log before the page walk: one
 * MemoryImage::read per word, absent pages included.
 */
RecoveryResult
recoverWordByWord(MemoryImage &image, const UndoLogLayout &layout)
{
    RecoveryResult result;
    result.sawCommitted =
        image.read<std::uint64_t>(layout.stateAddr) == kTxCommitted;
    std::vector<std::uint64_t> valid;
    std::vector<std::uint64_t> torn;
    for (std::uint64_t i = 0; i < layout.capacity; ++i) {
        const std::uint64_t word =
            image.read<std::uint64_t>(layout.entryAddr(i));
        if (word == 0)
            continue;
        const std::uint64_t old_val =
            image.read<std::uint64_t>(layout.entryAddr(i) + 8);
        if (undoEntryIntact(word, old_val))
            valid.push_back(i);
        else
            torn.push_back(i);
    }
    result.entriesTorn = torn.size();
    if (!result.sawCommitted) {
        for (auto it = valid.rbegin(); it != valid.rend(); ++it) {
            const Addr entry = layout.entryAddr(*it);
            const Addr target =
                undoEntryTarget(image.read<std::uint64_t>(entry));
            image.write(target, image.read<std::uint64_t>(entry + 8));
            result.appliedTargets.push_back(target);
            ++result.entriesApplied;
        }
    }
    valid.insert(valid.end(), torn.begin(), torn.end());
    for (std::uint64_t i : valid) {
        image.write<std::uint64_t>(layout.entryAddr(i), 0);
        ++result.entriesZeroed;
    }
    image.write<std::uint64_t>(layout.stateAddr, kTxActive);
    return result;
}

/**
 * A 1024-entry log over five pages: entries 0..251 share the state
 * word's page, 252..507, 508..763 and 764..1019 fill one page each,
 * and 1020..1023 open the fifth.
 */
UndoLogLayout
pagedLayout()
{
    UndoLogLayout l = layout();
    l.capacity = 1024;
    return l;
}

/** Both recoveries of @p img agree in every result and every byte. */
RecoveryResult
expectSameRecovery(const MemoryImage &img, const UndoLogLayout &l,
                   const std::string &label)
{
    MemoryImage walked = img;
    MemoryImage wordwise = img;
    const RecoveryResult got = recoverUndoLog(walked, l);
    const RecoveryResult want = recoverWordByWord(wordwise, l);
    EXPECT_EQ(got.sawCommitted, want.sawCommitted) << label;
    EXPECT_EQ(got.entriesApplied, want.entriesApplied) << label;
    EXPECT_EQ(got.entriesZeroed, want.entriesZeroed) << label;
    EXPECT_EQ(got.entriesTorn, want.entriesTorn) << label;
    EXPECT_EQ(got.appliedTargets, want.appliedTargets) << label;
    EXPECT_TRUE(walked.contentEquals(wordwise)) << label;
    return got;
}

TEST(UndoLog, PageWalkMatchesWordByWordRecovery)
{
    const UndoLogLayout l = pagedLayout();
    ASSERT_EQ(l.entryAddr(252) % 4096, 0u);
    ASSERT_EQ(l.entryAddr(1020) % 4096, 0u);
    const Addr x = l.stateAddr + 0x100000;

    for (std::uint64_t state : {kTxActive, kTxCommitted}) {
        const std::string tag = state == kTxActive ? "active" : "committed";

        // Only the state word: every entry page is absent.
        MemoryImage empty;
        empty.write<std::uint64_t>(l.stateAddr, state);
        const RecoveryResult none =
            expectSameRecovery(empty, l, tag + " empty");
        EXPECT_EQ(none.entriesZeroed, 0u);

        // The first and last slot of a page, the next page's first
        // slot and slot capacity-1, with the second and third entry
        // pages absent.  The sealed entry just past the log is no
        // entry of it.
        MemoryImage edges = empty;
        const std::vector<std::uint64_t> slots{0, 251, 252, 1023};
        for (std::size_t k = 0; k < slots.size(); ++k) {
            edges.write<std::uint64_t>(x + 64 * k, 1000 + k);
            putEntry(edges, l, slots[k], x + 64 * k, k + 1);
        }
        putEntry(edges, l, l.capacity, x + 0x1000, 99);
        const RecoveryResult r =
            expectSameRecovery(edges, l, tag + " page edges");
        EXPECT_EQ(r.entriesZeroed, slots.size());
        EXPECT_EQ(r.entriesApplied, state == kTxActive ? slots.size() : 0);

        // Torn checksums at the last slot of one page and the first of
        // the next, plus a materialized all-zero page.
        MemoryImage torn = edges;
        torn.write<std::uint64_t>(l.entryAddr(507), sealUndoEntry(x, 7));
        torn.write<std::uint64_t>(l.entryAddr(507) + 8, 8);
        torn.write<std::uint64_t>(l.entryAddr(508), x + 64);
        torn.write<std::uint64_t>(l.entryAddr(508) + 8, 9);
        torn.write<std::uint64_t>(l.entryAddr(800), 0);
        EXPECT_EQ(expectSameRecovery(torn, l, tag + " torn").entriesTorn,
                  2u);

        // A rollback that rewrites an older entry before it is read.
        MemoryImage aliased = edges;
        putEntry(aliased, l, 600, l.entryAddr(0) + 8, 0x77);
        expectSameRecovery(aliased, l, tag + " aliased");
    }
}

TEST(UndoLog, PageWalkMatchesWordByWordOnRandomLogs)
{
    const UndoLogLayout l = pagedLayout();
    const Addr heap = l.stateAddr + 0x100000;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        MemoryImage img;
        img.write<std::uint64_t>(l.stateAddr,
                                 rng.chance(0.5) ? kTxActive
                                                 : rng.below(3));
        if (rng.chance(0.3))
            img.write<std::uint64_t>(l.entryAddr(rng.below(l.capacity)), 0);
        const std::uint64_t entries = rng.below(12);
        for (std::uint64_t e = 0; e < entries; ++e) {
            const std::uint64_t slot = rng.below(l.capacity + 2);
            const Addr target = rng.chance(0.9)
                                    ? heap + 8 * rng.below(64)
                                    : l.entryAddr(rng.below(l.capacity));
            const std::uint64_t old_val = rng.next();
            std::uint64_t word = sealUndoEntry(target, old_val);
            std::uint64_t val = old_val;
            if (rng.chance(0.2))
                val ^= 1;            // The value word tore.
            else if (rng.chance(0.1))
                word = target;       // The seal never persisted.
            img.write<std::uint64_t>(l.entryAddr(slot), word);
            img.write<std::uint64_t>(l.entryAddr(slot) + 8, val);
        }
        expectSameRecovery(img, l, "seed " + std::to_string(seed));
    }
}

} // namespace
} // namespace ede
