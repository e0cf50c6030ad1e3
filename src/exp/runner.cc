#include "exp/runner.hh"

#include <cstdio>
#include <optional>

#include "apps/concurrent.hh"
#include "apps/harness.hh"
#include "common/logging.hh"
#include "sim/session.hh"
#include "exp/fingerprint.hh"
#include "exp/result_cache.hh"
#include "exp/scheduler.hh"

namespace ede {
namespace exp {

namespace {

/**
 * Simulate one concurrent-kernel point (bench/fig_scaling): N
 * lock-step cores running buildConcurrentTraces through a Session.
 * There is no setup/transaction split, so opCycles is the machine
 * run length.
 */
ExperimentCell
simulateConcCell(const ExperimentPoint &point, std::uint64_t fp)
{
    const LogJobTag tag(point.label);
    ConcParams cp;
    cp.cfg = point.config;
    cp.cores = static_cast<unsigned>(point.simParams.coreCount);
    cp.opsPerCore = point.concOpsPerCore;
    cp.seed = point.concSeed;
    const std::vector<Trace> traces =
        buildConcurrentTraces(point.concApp, cp);

    Session session(SimConfig::paper(point.config)
                        .withCore(point.simParams.core)
                        .withMem(point.simParams.mem)
                        .withCoreCount(point.simParams.coreCount));
    const SimResult r = session.run(RunRequest::perCore(traces));
    if (!r.ok())
        throw SimFaultError(r.error);
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.opCycles = r.stats.cycles;
    cell.result = r.stats;
    cell.profile = r.profile;
    return cell;
}

/**
 * Simulate one open-loop traffic point (bench/fig_traffic): the plan
 * expands into per-core traces inside Session::run, and the cell's
 * result carries the exact tail-latency records in stats.traffic.
 */
ExperimentCell
simulateTrafficCell(const ExperimentPoint &point, std::uint64_t fp)
{
    const LogJobTag tag(point.label);
    Session session(SimConfig::paper(point.config)
                        .withCore(point.simParams.core)
                        .withMem(point.simParams.mem)
                        .withCoreCount(point.simParams.coreCount));
    const SimResult r =
        session.run(RunRequest::ofTraffic(point.trafficPlan));
    if (!r.ok())
        throw SimFaultError(r.error);
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.opCycles = r.stats.cycles;
    cell.result = r.stats;
    cell.profile = r.profile;
    return cell;
}

/**
 * Simulate one plan point.  Shared verbatim by the in-process path
 * and the forked worker, so isolated results are bit-identical to
 * inline ones; a structured simulator abort raises SimFaultError on
 * both.
 */
ExperimentCell
simulateCell(const ExperimentPoint &point, std::uint64_t fp)
{
    if (point.traffic)
        return simulateTrafficCell(point, fp);
    if (point.conc)
        return simulateConcCell(point, fp);
    const LogJobTag tag(point.label);
    WorkloadHarness h(point.app, point.config, point.spec,
                      point.appParams, point.simParams);
    h.generate();
    h.simulate();
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.opCycles = h.opPhaseCycles();
    cell.result = h.system().result();
    cell.profile = h.system().profile();
    return cell;
}

ExperimentCell
quarantinedCell(const ExperimentPoint &point, std::uint64_t fp,
                JobFailure failure)
{
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fp;
    cell.failed = true;
    cell.failure = std::move(failure);
    return cell;
}

} // namespace

std::uint64_t
planSweepId(const ExperimentPlan &plan)
{
    FingerprintHasher h;
    h.field("sweep.points", static_cast<std::uint64_t>(plan.size()));
    for (const ExperimentPoint &p : plan.points())
        h.field("sweep.cell", fingerprintPoint(p));
    return h.value();
}

ExperimentResults
runPlan(const ExperimentPlan &plan, const RunnerOptions &options)
{
    const Isolation &iso = options.isolation;
    iso.requireIsolatedJournal("sweep");

    const Scheduler sched(options.jobs);
    std::optional<ResultCache> cache;
    if (!options.cacheDir.empty())
        cache.emplace(options.cacheDir);

    const std::vector<ExperimentPoint> &points = plan.points();
    std::vector<ExperimentCell> cells(plan.size());
    // Fill cell i from the cache; false on a miss.
    auto cached = [&](std::size_t i, std::uint64_t fp) {
        std::optional<ExperimentCell> hit =
            cache ? cache->load(points[i], fp) : std::nullopt;
        if (hit)
            cells[i] = std::move(*hit);
        return hit.has_value();
    };
    if (!iso.isolate) {
        // First failure (lowest index) propagates after in-flight
        // jobs drain.
        sched.parallelFor(plan.size(), [&](std::size_t i) {
            const std::uint64_t fp = fingerprintPoint(points[i]);
            if (cached(i, fp))
                return;
            cells[i] = simulateCell(points[i], fp);
            if (cache)
                cache->store(cells[i]);
        });
    } else {
        IsolatedSweep sweep("cell", "snapshot", planSweepId(plan));
        for (const ExperimentPoint &point : points)
            sweep.jobs.push_back({point.label, fingerprintPoint(point)});
        sweep.work = [&](std::size_t i) {
            return serializeCell(
                simulateCell(points[i], sweep.jobs[i].fingerprint));
        };
        sweep.accept = [&](std::size_t i, const std::string &payload,
                           bool replayed) {
            std::optional<ExperimentCell> cell = deserializeCell(
                payload, points[i], sweep.jobs[i].fingerprint);
            if (!cell)
                return false;
            cell->fromCache = false;
            cell->fromJournal = replayed;
            cells[i] = std::move(*cell);
            if (cache && !replayed)
                cache->store(cells[i]);
            return true;
        };
        sweep.local = [&](std::size_t i) -> std::optional<std::string> {
            if (!cached(i, sweep.jobs[i].fingerprint))
                return std::nullopt;
            return serializeCell(cells[i]);
        };
        std::vector<std::optional<JobFailure>> failures =
            runIsolated(sweep, iso, options.jobs);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (failures[i]) {
                cells[i] = quarantinedCell(points[i],
                                           sweep.jobs[i].fingerprint,
                                           std::move(*failures[i]));
            }
        }
    }

    ExperimentResults results(std::move(cells));
    if (options.printSummary) {
        std::printf("[exp] %zu cells: %zu cached, %zu replayed, "
                    "%zu simulated, %zu quarantined (jobs=%u%s%s)\n",
                    results.size(), results.cacheHits(),
                    results.journalReplays(), results.simulated(),
                    results.failures().size(), sched.jobs(),
                    cache ? (", cache=" + cache->dir()).c_str()
                          : ", cache off",
                    iso.isolate ? ", isolated" : "");
        for (const ExperimentCell *f : results.failures()) {
            std::printf("[exp] quarantined '%s': %s\n",
                        f->point.label.c_str(),
                        f->failure.describe().c_str());
        }
        std::fflush(stdout);
    }
    return results;
}

} // namespace exp
} // namespace ede
