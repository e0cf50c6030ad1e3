#include "nvm/undo_log.hh"

#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace ede {

RecoveryResult
recoverUndoLog(MemoryImage &image, const UndoLogLayout &layout)
{
    ede_assert(layout.stateAddr != kNoAddr && layout.capacity > 0,
               "recovery needs a valid log layout");
    ede_assert((layout.entriesBase & 15) == 0,
               "log entries must be 16-byte aligned");
    RecoveryResult result;
    const std::uint64_t state =
        image.read<std::uint64_t>(layout.stateAddr);
    result.sawCommitted = (state == kTxCommitted);

    // Collect the valid entries in log order, discarding torn ones
    // (non-empty addr word whose checksum disagrees with the pair).
    // The scan walks the entry array's materialized pages: an absent
    // page holds only empty entries, and an aligned entry never
    // straddles two pages.
    std::vector<std::uint64_t> valid;
    std::vector<std::uint64_t> torn;
    image.forEachPageIn(
        layout.entriesBase, 16 * layout.capacity,
        [&](Addr addr, std::span<const std::uint8_t> bytes) {
            const std::uint64_t first = (addr - layout.entriesBase) / 16;
            for (std::size_t off = 0; off < bytes.size(); off += 16) {
                std::uint64_t word;
                std::memcpy(&word, bytes.data() + off, 8);
                if (word == 0)
                    continue;
                std::uint64_t old_val;
                std::memcpy(&old_val, bytes.data() + off + 8, 8);
                const std::uint64_t i = first + off / 16;
                if (undoEntryIntact(word, old_val))
                    valid.push_back(i);
                else
                    torn.push_back(i);
            }
        });
    result.entriesTorn = torn.size();

    if (!result.sawCommitted) {
        // Roll back the in-flight transaction, newest entry first so
        // repeated writes to one location restore the oldest value.
        for (auto it = valid.rbegin(); it != valid.rend(); ++it) {
            const Addr entry = layout.entryAddr(*it);
            const Addr target =
                undoEntryTarget(image.read<std::uint64_t>(entry));
            const std::uint64_t old_val =
                image.read<std::uint64_t>(entry + 8);
            image.write(target, old_val);
            result.appliedTargets.push_back(target);
            ++result.entriesApplied;
        }
    }
    // Torn entries are unusable either way: drop them with the rest.
    valid.insert(valid.end(), torn.begin(), torn.end());

    // Either way, finish with an empty, active log.
    for (std::uint64_t i : valid) {
        image.write<std::uint64_t>(layout.entryAddr(i), 0);
        ++result.entriesZeroed;
    }
    image.write<std::uint64_t>(layout.stateAddr, kTxActive);
    return result;
}

} // namespace ede
