/**
 * @file
 * Append-only, crash-safe sweep journals.
 *
 * A journal records, per plan index, the durable outcome of one sweep
 * cell: either `ok` with the cell's serialized payload inline, or
 * `quarantine` with the typed JobFailure record in the wire format
 * (exp/fields.hh).  Records are single lines (the payload
 * percent-escaped into one token) each sealed with an FNV-1a checksum,
 * appended and flushed one at a time -- so a sweep SIGKILLed mid-run
 * leaves at worst one torn final line, which replay detects and
 * drops.  `--resume` replays the journal and reuses every durable
 * cell, making an interrupted campaign's final output identical to an
 * uninterrupted run's.
 *
 * The header line binds the journal to one sweep identity (a hash of
 * every input that determines the cells) and the point count; a
 * journal written by a different sweep is ignored and started fresh,
 * never misread.
 */

#ifndef EDE_EXP_JOURNAL_HH
#define EDE_EXP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "exp/worker.hh"

namespace ede {
namespace exp {

/** One replayed journal record. */
struct JournalEntry
{
    bool ok = false;                 ///< ok vs. quarantine record.
    std::uint64_t fingerprint = 0;   ///< Cell identity at write time.
    std::string payload;             ///< Serialized cell (ok only).
    JobFailure failure;              ///< Quarantine record only.
};

/** Percent-escape @p s so it survives as one whitespace-free token. */
std::string journalEscape(const std::string &s);

/** Inverse of journalEscape. */
std::string journalUnescape(const std::string &s);

/** The append-only journal of one sweep. */
class SweepJournal
{
  public:
    /**
     * Open @p path for appending.  When @p resume is set and the file
     * carries a matching header (@p sweepId, @p points), its valid
     * records are replayed into replayed(); otherwise the file is
     * started fresh (a mismatched journal is dropped with a warning).
     */
    SweepJournal(std::string path, std::uint64_t sweepId,
                 std::size_t points, bool resume);

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Records recovered by a resume open, keyed by plan index. */
    const std::map<std::size_t, JournalEntry> &replayed() const
    {
        return replayed_;
    }

    /** Append a durable `ok` record. Thread-safe. */
    void recordOk(std::size_t index, std::uint64_t fingerprint,
                  const std::string &payload);

    /** Append a `quarantine` record. Thread-safe. */
    void recordQuarantine(std::size_t index, std::uint64_t fingerprint,
                          const JobFailure &failure);

    const std::string &path() const { return path_; }

  private:
    void appendSealedLine(const std::string &body);

    std::string path_;
    std::map<std::size_t, JournalEntry> replayed_;
    std::mutex mutex_;
};

} // namespace exp
} // namespace ede

#endif // EDE_EXP_JOURNAL_HH
