/**
 * @file
 * Experiment results with keyed lookup.
 *
 * ExperimentResults replaces the benches' old linear `cellOf` scan:
 * cells are indexed by (app, config) and by label at construction,
 * lookups are O(log n), and a missing cell fails with a message
 * naming exactly what was requested instead of running into
 * undefined behaviour.
 */

#ifndef EDE_EXP_RESULT_HH
#define EDE_EXP_RESULT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/fingerprint.hh"
#include "exp/plan.hh"
#include "exp/profile.hh"
#include "exp/worker.hh"
#include "sim/system.hh"

namespace ede {
namespace exp {

/** One completed (or cache-restored, or quarantined) cell. */
struct ExperimentCell
{
    ExperimentPoint point;
    std::uint64_t fingerprint = 0;
    Cycle opCycles = 0;  ///< Transaction-phase cycles (the paper's
                         ///< measurement excludes pool setup).
    RunResult result;
    bool fromCache = false;    ///< Restored from the result cache.
    bool fromJournal = false;  ///< Replayed from a sweep journal.

    /**
     * Quarantined: the isolated worker for this cell failed
     * terminally (crash, timeout, OOM, SimFault after the retry
     * budget).  `result` is empty; `failure` carries the typed
     * record.  Only a keep-going isolated run produces these.
     */
    bool failed = false;
    JobFailure failure;

    /**
     * Host-side performance of the simulation that produced this
     * cell.  Never cached (host wall time is not content-addressable);
     * all-zero when fromCache is set.
     */
    HostProfile profile;
};

/**
 * What a cell persists -- the measured run behind its point -- and,
 * in JSON only, its identity, inputs and host profile.
 */
void
visitFields(auto &v, FieldsOf<ExperimentCell> auto &c)
{
    v.derived("label", c.point.label);
    v.derived("app", cellAppName(c.point));
    v.derived("fingerprint", fingerprintHex(c.fingerprint));
    v.derived("from_cache", c.fromCache);
    v.derived("point", c.point);
    v("op_cycles", c.opCycles);
    visitFields(v, c.result);
    // All-zero for cache-restored cells: host time is never cached.
    v.derived("host_perf", c.profile);
}

/** A plan's cells, in plan order, with keyed lookup. */
class ExperimentResults
{
  public:
    ExperimentResults() = default;
    explicit ExperimentResults(std::vector<ExperimentCell> cells);

    /** Cells in plan order. */
    const std::vector<ExperimentCell> &cells() const { return cells_; }
    std::size_t size() const { return cells_.size(); }

    /**
     * The cell for (app, config); fatal with a message naming the
     * missing pair when the plan never contained it.  When a plan
     * holds several cells for the pair (ablation axes), the first in
     * plan order is returned -- use cellByLabel for axis points.
     */
    const ExperimentCell &cell(AppId app, Config cfg) const;

    /** As cell(), or nullptr when missing. */
    const ExperimentCell *find(AppId app, Config cfg) const;

    /** The cell with label @p label; fatal when absent. */
    const ExperimentCell &cellByLabel(const std::string &label) const;

    /** As cellByLabel(), or nullptr when missing. */
    const ExperimentCell *findByLabel(const std::string &label) const;

    /** Cells restored from the result cache. */
    std::size_t cacheHits() const { return cacheHits_; }

    /** Cells replayed from a sweep journal (--resume). */
    std::size_t journalReplays() const { return journalReplays_; }

    /** Quarantined cells, in plan order. */
    const std::vector<const ExperimentCell *> &failures() const
    {
        return failures_;
    }

    /** True when no cell was quarantined. */
    bool allOk() const { return failures_.empty(); }

    /** Cells that were freshly simulated. */
    std::size_t
    simulated() const
    {
        return cells_.size() - cacheHits_ - journalReplays_ -
               failures_.size();
    }

  private:
    std::vector<ExperimentCell> cells_;
    std::vector<const ExperimentCell *> failures_;
    std::map<std::pair<int, int>, std::size_t> byKey_;
    std::map<std::string, std::size_t> byLabel_;
    std::size_t cacheHits_ = 0;
    std::size_t journalReplays_ = 0;
};

} // namespace exp
} // namespace ede

#endif // EDE_EXP_RESULT_HH
