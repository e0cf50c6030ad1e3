/**
 * @file
 * Content-addressed, on-disk cache of RunResult snapshots.
 *
 * One file per fingerprint (fingerprint.hh hashes every simulation
 * input plus the schema version), so the three figure reporters --
 * which sweep the identical (app x config) grid -- share one
 * simulation instead of re-running it per binary.  Writes go through
 * a temp file + rename, making concurrent writers (parallel jobs,
 * or two benches racing) safe: the rename is atomic and both sides
 * would write identical bytes anyway.
 *
 * A snapshot that fails any validation -- wrong magic or schema
 * version, truncated, a mismatched label, fingerprint or histogram
 * shape, a list count larger than the file can hold -- is treated as
 * a miss, never an error.  Temp files stranded by a writer that died before
 * its rename are swept when the cache is opened.
 */

#ifndef EDE_EXP_RESULT_CACHE_HH
#define EDE_EXP_RESULT_CACHE_HH

#include <optional>
#include <string>

#include "exp/result.hh"

namespace ede {
namespace exp {

/** Serialize a cell's measurements (cache file contents). */
std::string serializeCell(const ExperimentCell &cell);

/**
 * Parse @p text into a cell for @p point; nullopt on any mismatch.
 * @p fingerprint is the expected content address.
 */
std::optional<ExperimentCell>
deserializeCell(const std::string &text, const ExperimentPoint &point,
                std::uint64_t fingerprint);

/** The disk cache: a directory of snapshot files. */
class ResultCache
{
  public:
    /** Open (creating if needed) the cache at @p dir. */
    explicit ResultCache(std::string dir);

    /** Look up the snapshot for @p point; nullopt on miss. */
    std::optional<ExperimentCell>
    load(const ExperimentPoint &point, std::uint64_t fingerprint) const;

    /** Persist @p cell under its fingerprint. */
    void store(const ExperimentCell &cell) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string pathFor(std::uint64_t fingerprint) const;

    std::string dir_;
};

} // namespace exp
} // namespace ede

#endif // EDE_EXP_RESULT_CACHE_HH
