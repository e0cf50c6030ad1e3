/**
 * @file
 * Unified JSON result sink.
 *
 * Every bench can emit its sweep as a machine-readable
 * `BENCH_<name>.json` artifact (--json), giving the CI perf
 * trajectory one schema across figures, ablations and the fault
 * campaign instead of scraping text tables.
 */

#ifndef EDE_EXP_SINK_HH
#define EDE_EXP_SINK_HH

#include <string>

#include "exp/result.hh"

namespace ede {
namespace exp {

/** Render @p results as the unified JSON document. */
std::string resultsToJson(const std::string &benchName,
                          const ExperimentResults &results);

/**
 * Write @p text to the artifact file @p path, replacing it; an
 * unwritable path or a short write is fatal.
 */
void writeArtifact(const std::string &path, const std::string &text);

/**
 * Write @p results as JSON to @p path (fatal on I/O error) and
 * report the artifact on stdout.
 */
void writeJsonArtifact(const std::string &path,
                       const std::string &benchName,
                       const ExperimentResults &results);

} // namespace exp
} // namespace ede

#endif // EDE_EXP_SINK_HH
