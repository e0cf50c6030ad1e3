#include "exp/sink.hh"

#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "exp/fields.hh"

namespace ede {
namespace exp {

namespace {

/** A measured cell, by reference. */
struct CellJson
{
    const ExperimentCell &cell;
};

void
visitFields(auto &v, const CellJson &j)
{
    visitFields(v, j.cell);
}

/** A quarantined cell: its identity and the failure record. */
struct FailureJson
{
    const ExperimentCell &cell;
};

void
visitFields(auto &v, const FailureJson &j)
{
    const ExperimentCell &c = j.cell;
    v("label", c.point.label);
    v("app", cellAppName(c.point));
    v("config", c.point.config, configName);
    v("fingerprint", fingerprintHex(c.fingerprint));
    visitFields(v, c.failure);
}

struct CacheTally
{
    std::size_t hits;
    std::size_t replayed;
    std::size_t simulated;
};

void
visitFields(auto &v, const CacheTally &t)
{
    v("hits", t.hits);
    v("replayed", t.replayed);
    v("simulated", t.simulated);
}

} // namespace

std::string
resultsToJson(const std::string &benchName,
              const ExperimentResults &results)
{
    // Quarantined cells carry no measurements; they are reported in
    // "failures" so no consumer mistakes an empty RunResult for data.
    std::vector<CellJson> cells;
    std::vector<FailureJson> failures;
    for (const ExperimentCell &c : results.cells()) {
        if (c.failed)
            failures.push_back({c});
        else
            cells.push_back({c});
    }
    std::string out;
    JsonWriter w(out, /*blockDepth=*/3);
    w("bench", benchName);
    w("schema", kResultSchemaVersion);
    w("cache", CacheTally{results.cacheHits(), results.journalReplays(),
                          results.simulated()});
    w("cells", cells);
    w("failures", failures);
    w.finish();
    return out + '\n';
}

void
writeArtifact(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        ede_fatal("cannot write JSON artifact '", path, "'");
    out << text;
    out.close();
    if (!out)
        ede_fatal("short write on JSON artifact '", path, "'");
}

void
writeJsonArtifact(const std::string &path, const std::string &benchName,
                  const ExperimentResults &results)
{
    writeArtifact(path, resultsToJson(benchName, results));
    std::printf("[exp] wrote %s (%zu cells)\n", path.c_str(),
                results.size());
}

} // namespace exp
} // namespace ede
