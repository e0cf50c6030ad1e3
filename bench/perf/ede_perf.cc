/**
 * @file
 * ede_perf: one repetition of one benchmark workload.
 *
 *   ede_perf --workload fig9|scaling|traffic|crash --seed N
 *            --out REPORT.json --scratch DIR [--trace] [--trace-out F]
 *
 * Runs the workload's cells back to back on one thread, timing every
 * call into the simulator around its public entry point (tracer.hh),
 * checks the outputs, and writes one JSON report: every measured
 * metric with its unit, one digest per cell over a fixed, bench-owned
 * list of simulated statistics, and the checks that failed.  The
 * digests use their own hash so the exp-layer encoders can change
 * without touching the gate.
 *
 * --trace adds probe calls -- standalone calls to the steps an in-path
 * call hides (traffic trace build and replay, persist-order build and
 * durable-set enumeration) -- cross-checks each probe against the
 * in-path result, and writes the spans as Chrome trace-event JSON.
 * Probe spans are flagged and left out of wall_s.
 *
 * bench/perf/run.py builds this program, runs repetitions of it and
 * combines them; bench/perf/README.md describes the workloads and
 * metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/conc_harness.hh"
#include "apps/concurrent.hh"
#include "apps/harness.hh"
#include "exp/fingerprint.hh"
#include "exp/result_cache.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"
#include "fault/model_check/enumerate.hh"
#include "sim/session.hh"
#include "tracer.hh"
#include "traffic/overload.hh"

using namespace ede;

namespace {

/**
 * @name Workload sizes.
 *
 * Each is sized so one repetition takes 4-6 s on README.md's
 * reference host, leaving room for three or more repetitions in one
 * measured run; README.md gives the reason for each workload.
 */
/// @{
constexpr std::size_t kFig9Txns = 20;
constexpr std::size_t kFig9OpsPerTxn = 25;

constexpr int kScalingOpsPerCore = 512;
constexpr unsigned kScalingCores[] = {4, 8};

/** Mean per-stream gaps, lightest load first (~0.45x to 1.8x knee). */
constexpr double kTrafficGaps[] = {4000, 3000, 2500, 2000, 1500, 1000};
constexpr unsigned kTrafficStreams = 8;
/** 8 x 140 steady transactions: >= 10 samples beyond the p99. */
constexpr int kTrafficTxnsPerStream = 160;
constexpr int kTrafficOpsPerTxn = 4;
constexpr int kTrafficCores = 2;
constexpr Cycle kTrafficDeadline = 3000;
constexpr Cycle kTrafficP99Limit = 10000;  ///< max_rate_per_kcyc limit.
constexpr double kTrafficHeadlineGap = 2000;  ///< open_p99_cyc point.
constexpr double kTrafficOverloadGap = 1000;  ///< goodput point.

/**
 * Crash checks.  The checked programs are fixed: some workload seeds
 * expose a known rcu checker failure (README.md), so --seed drives
 * the checkers' own seed -- which torn-persist variants are
 * materialized -- and never the programs.
 */
struct CrashCheck
{
    const char *name;
    bool conc;
    AppId app;
    std::size_t txns;
    std::size_t opsPerTxn;
    ConcApp concApp;
    unsigned cores;
    int opsPerCore;
};

constexpr CrashCheck kCrashChecks[] = {
    {"update", false, AppId::Update, 24, 8, ConcApp::MsQueue, 1, 0},
    {"swap", false, AppId::Swap, 12, 8, ConcApp::MsQueue, 1, 0},
    {"rwlock", true, AppId::Update, 0, 0, ConcApp::RwLock, 4, 16},
    {"rcu", true, AppId::Update, 0, 0, ConcApp::RcuList, 4, 16},
};
constexpr std::uint64_t kCrashProgramSeed = 42;
constexpr std::uint64_t kCrashConcWorkloadSeed = 1;
/// @}

/**
 * Seed of input @p index under master seed @p seed (splitmix64).
 * Scaling and traffic cells draw independent inputs this way: their
 * simulated work varies ~10% from one input to the next, and one
 * repetition then averages over many inputs instead of repeating one.
 */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The paper's Fig. 9 execution-time reductions vs B, percent. */
constexpr Config kFig9Configs[] = {Config::SU, Config::IQ, Config::WB,
                                   Config::U};
constexpr double kFig9PaperReductionPct[] = {5, 15, 20, 38};

/** FNV-1a over 64-bit words: the correctness-gate digest. */
class Digest
{
  public:
    Digest &
    operator<<(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
        return *this;
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void
digestCache(Digest &d, const CacheStats &c)
{
    d << c.hits << c.misses << c.writebacks << c.evictions
      << c.snoopInvalidations << c.snoopDowngrades;
}

void
digestRun(Digest &d, const RunResult &r)
{
    d << r.cycles << r.coreCount;
    for (const CoreRunStats &pc : r.perCore) {
        const CoreStats &s = pc.stats;
        d << s.cycles << s.retired << s.issuedOps << s.dispatched
          << s.squashes << s.squashedInsts << s.branches
          << s.mispredicts << s.loadsForwarded << s.retireStallWbFull
          << s.dispatchStallRob << s.dispatchStallIq
          << s.dispatchStallLsq;
        d << pc.wb.inserted << pc.wb.pushes << pc.wb.srcIdGated
          << pc.wb.lineGated << pc.wb.dmbGated << pc.wb.memRejected;
        digestCache(d, pc.l1d);
    }
    digestCache(d, r.l2);
    digestCache(d, r.l3);
    d << r.nvm.reads << r.nvm.bufferReadHits << r.nvm.writesAccepted
      << r.nvm.writesCoalesced << r.nvm.mediaWrites
      << r.nvm.cleansAccepted << r.nvm.bufferFullRejects
      << r.nvm.transientRejects;
    d << r.dram.reads << r.dram.writes;
    d << r.coherence.snoops << r.coherence.invalidations
      << r.coherence.downgrades << r.coherence.dirtyHandoffs;
}

void
digestLatency(Digest &d, const traffic::LatencySummary &s)
{
    d << s.count << s.p50 << s.p99 << s.p999 << s.max << s.sum;
}

void
digestTraffic(Digest &d, const traffic::TrafficResult &t)
{
    digestLatency(d, t.open);
    digestLatency(d, t.service);
    digestLatency(d, t.openSteady);
    digestLatency(d, t.serviceSteady);
    for (const traffic::StreamLatency &s : t.streams) {
        digestLatency(d, s.open);
        d << s.shed << s.retries << s.failures;
    }
    const traffic::OverloadResult &o = t.overload;
    d << o.effectiveDepth << o.offered << o.admitted << o.completed
      << o.goodput << o.timeouts << o.failures << o.steadyOffered
      << o.steadyGoodput << o.steadyHorizon << o.shedQueue
      << o.shedDeadline << o.shedToken << o.shedDegrade << o.retries
      << o.retryExhausted;
}

std::uint64_t
cellDigest(const exp::ExperimentCell &cell)
{
    Digest d;
    d << cell.opCycles;
    digestRun(d, cell.result);
    if (cell.result.traffic.enabled)
        digestTraffic(d, cell.result.traffic);
    return d.value();
}

void
digestOrder(Digest &d, const PersistOrderStats &s)
{
    d << s.sameLine << s.edk << s.keyChain << s.fence << s.lineGate
      << s.nonmonotone << s.crossWait << s.crossLine;
}

std::uint64_t
checkDigest(const ModelCheckConfigResult &c)
{
    Digest d;
    d << c.cycles << c.events << c.freeEvents;
    digestOrder(d, c.orderStats);
    d << c.states << c.rejectedBudget << c.tornVariants << c.uniqueImages
      << c.recoveredClean << c.tornLogDetected << c.violations
      << c.truncated;
    return d.value();
}

std::uint64_t
checkDigest(const ConcCheckConfigResult &c)
{
    Digest d;
    d << c.cycles << c.events << c.freeEvents;
    digestOrder(d, c.orderStats);
    d << c.states << c.rejectedBudget << c.tornVariants << c.uniqueImages
      << c.recoveredClean << c.violations << c.truncated;
    return d.value();
}

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one repetition measures and checks. */
struct Rep
{
    std::uint64_t seed = 1;
    bool traced = false;
    std::string scratch;
    perf::Tracer tracer;
    std::map<std::string, Metric> metrics;
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    std::map<std::string, std::vector<std::string>> failures;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Start cell @p label: counted as attempted, tags later spans. */
    void
    beginCell(const std::string &label)
    {
        tracer.setCell(label);
        digests.emplace_back(label, 0);
    }

    void
    digest(std::uint64_t value)
    {
        digests.back().second = value;
    }

    void
    check(bool ok, const std::string &cell, const std::string &what)
    {
        if (!ok)
            failures[cell].push_back(what);
    }
};

/** Sums over the simulate calls of one repetition. */
struct SimTotals
{
    double seconds = 0.0;
    double cycles = 0.0;
    double insts = 0.0;
    HostProfile profile;

    void
    add(double s, Cycle c, const HostProfile &p)
    {
        seconds += s;
        cycles += static_cast<double>(c);
        profile.merge(p);
    }
};

void
setSimMetrics(Rep &rep, const SimTotals &t)
{
    const HostProfile &p = t.profile;
    const double ns = 1e-9;
    const double fetch = static_cast<double>(p.fetchNanos) * ns;
    const double issue = static_cast<double>(p.issueNanos) * ns;
    const double wb = static_cast<double>(p.wbNanos) * ns;
    const double mem = static_cast<double>(p.memNanos) * ns;
    const double skip = static_cast<double>(p.skipNanos) * ns;
    rep.set("apps.trace_insts", t.insts, "count");
    rep.set("sim.run_s", t.seconds, "s");
    rep.set("sim.mcycles", t.cycles / 1e6, "Mcyc");
    rep.set("sim_mcyc_per_s", t.cycles / 1e6 / t.seconds, "Mcyc/s");
    rep.set("sim.host_ticks", static_cast<double>(p.hostTicks), "count");
    rep.set("sim.skip_ratio", p.skipRatio(), "ratio");
    rep.set("sim.ns_per_tick",
            t.seconds * 1e9 / static_cast<double>(p.hostTicks), "ns");
    rep.set("pipeline.fetch_s", fetch, "s");
    rep.set("pipeline.issue_s", issue, "s");
    rep.set("pipeline.wb_s", wb, "s");
    rep.set("mem.tick_s", mem, "s");
    rep.set("sim.skip_s", skip, "s");
    rep.set("sim.unattributed_s",
            t.seconds - (fetch + issue + wb + mem + skip), "s");
}

/**
 * Store every cell through the result cache, reload the plan warm
 * through runPlan, check the reload against the fresh run, and render
 * the JSON artifact: the exp layer's whole round trip.
 */
void
expRoundTrip(Rep &rep, const exp::ExperimentPlan &plan,
             std::vector<exp::ExperimentCell> &cells,
             const std::string &name)
{
    rep.tracer.setCell("");
    const std::string dir = rep.scratch + "/cache-" + name;
    perf::Span fp(rep.tracer, "exp.fingerprint");
    for (exp::ExperimentCell &c : cells)
        c.fingerprint = exp::fingerprintPoint(c.point);
    const double fpS = fp.close();

    perf::Span store(rep.tracer, "exp.cache_store");
    {
        const exp::ResultCache cache(dir);
        for (const exp::ExperimentCell &c : cells)
            cache.store(c);
    }
    const double storeS = store.close();

    exp::RunnerOptions ro;
    ro.jobs = 1;
    ro.cacheDir = dir;
    ro.printSummary = false;
    perf::Span load(rep.tracer, "exp.run_plan");
    const exp::ExperimentResults warm = exp::runPlan(plan, ro);
    const double loadS = load.close();

    perf::Span json(rep.tracer, "exp.json");
    exp::writeJsonArtifact(rep.scratch + "/BENCH_" + name + ".json",
                           "ede_perf_" + name, warm);
    const double jsonS = json.close();

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const exp::ExperimentCell &c = warm.cells()[i];
        const std::string &label = cells[i].point.label;
        rep.check(c.fromCache, label,
                  "cell was not served from the result cache");
        rep.check(cellDigest(c) == cellDigest(cells[i]), label,
                  "digest after the cache reload differs from the "
                  "fresh run");
    }
    rep.set("exp.fingerprint_us", fpS * 1e6, "us");
    rep.set("exp.store_ms", storeS * 1e3, "ms");
    rep.set("exp.load_ms", loadS * 1e3, "ms");
    rep.set("exp.json_ms", jsonS * 1e3, "ms");
    rep.set("exp.cache_hit_ratio",
            static_cast<double>(warm.cacheHits()) /
                static_cast<double>(cells.size()),
            "ratio");
}

void
runFig9(Rep &rep)
{
    const RunSpec spec{kFig9Txns, kFig9OpsPerTxn, rep.seed};
    AppParams appParams;
    appParams.seed = rep.seed;
    exp::ExperimentPlan plan;
    plan.addGrid({kAllApps.begin(), kAllApps.end()},
                 {kAllConfigs.begin(), kAllConfigs.end()}, spec,
                 appParams);

    SimTotals sim;
    double setup = 0.0;
    double generate = 0.0;
    std::vector<exp::ExperimentCell> cells;
    for (const exp::ExperimentPoint &pt : plan.points()) {
        rep.beginCell(pt.label);
        perf::Span cellSpan(rep.tracer, "bench.cell");
        perf::Span ctor(rep.tracer, "apps.harness");
        WorkloadHarness h(pt.app, pt.config, pt.spec, pt.appParams,
                          pt.simParams);
        setup += ctor.close();
        perf::Span gen(rep.tracer, "apps.generate");
        h.generate();
        const double g = gen.close();
        generate += g;
        setup += g;
        perf::Span run(rep.tracer, "sim.simulate");
        const Cycle cycles = h.simulate();
        sim.add(run.close(), cycles, h.system().profile());
        sim.insts += static_cast<double>(h.trace().size());

        exp::ExperimentCell cell;
        cell.point = pt;
        cell.opCycles = h.opPhaseCycles();
        cell.result = h.system().result();
        cell.profile = h.system().profile();
        perf::Span final(rep.tracer, "apps.check_final");
        rep.check(h.app().checkFinal(), pt.label,
                  "functional end state fails the app's checkFinal");
        final.close();
        rep.digest(cellDigest(cell));
        cells.push_back(std::move(cell));
    }
    rep.set("setup_s", setup, "s");
    rep.set("apps.generate_s", generate, "s");
    setSimMetrics(rep, sim);
    expRoundTrip(rep, plan, cells, "fig9");

    // Fidelity: geomean execution-time reduction vs B per config.
    double err = 0.0;
    for (std::size_t k = 0; k < std::size(kFig9Configs); ++k) {
        double logSum = 0.0;
        for (AppId app : kAllApps) {
            const auto opCycles = [&](Config cfg) {
                for (const exp::ExperimentCell &c : cells) {
                    if (c.point.app == app && c.point.config == cfg)
                        return static_cast<double>(c.opCycles);
                }
                return 0.0;
            };
            logSum += std::log(opCycles(kFig9Configs[k]) /
                               opCycles(Config::B));
        }
        const double reductionPct =
            100.0 * (1.0 - std::exp(logSum / kAllApps.size()));
        rep.set("fig9.reduction_" +
                    std::string(configName(kFig9Configs[k])) + "_pct",
                reductionPct, "%");
        err += std::fabs(reductionPct - kFig9PaperReductionPct[k]);
    }
    rep.set("fig9_err_pp", err / std::size(kFig9Configs), "pp");
}

void
runScaling(Rep &rep)
{
    exp::ExperimentPlan plan;
    for (ConcApp app : kAllConcApps) {
        for (Config cfg : kAllConfigs) {
            for (unsigned n : kScalingCores) {
                exp::ExperimentPoint pt;
                pt.label = std::string(concAppName(app)) + "/" +
                           std::string(configName(cfg)) + "/" +
                           std::to_string(n) + "c";
                pt.config = cfg;
                pt.simParams = SimConfig::paper(cfg)
                                   .withCoreCount(static_cast<int>(n))
                                   .params();
                pt.conc = true;
                pt.concApp = app;
                pt.concOpsPerCore = kScalingOpsPerCore;
                pt.concSeed = subSeed(rep.seed, plan.size());
                plan.add(std::move(pt));
            }
        }
    }

    SimTotals sim;
    double setup = 0.0;
    double generate = 0.0;
    std::vector<exp::ExperimentCell> cells;
    for (const exp::ExperimentPoint &pt : plan.points()) {
        rep.beginCell(pt.label);
        perf::Span cellSpan(rep.tracer, "bench.cell");
        ConcParams cp;
        cp.cfg = pt.config;
        cp.cores = static_cast<unsigned>(pt.simParams.coreCount);
        cp.opsPerCore = pt.concOpsPerCore;
        cp.seed = pt.concSeed;
        perf::Span gen(rep.tracer, "apps.build_traces");
        const std::vector<Trace> traces =
            buildConcurrentTraces(pt.concApp, cp);
        const double g = gen.close();
        generate += g;
        perf::Span ctor(rep.tracer, "sim.session");
        Session session(SimConfig::paper(pt.config)
                            .withCoreCount(pt.simParams.coreCount));
        setup += g + ctor.close();
        for (const Trace &t : traces)
            sim.insts += static_cast<double>(t.size());
        perf::Span run(rep.tracer, "sim.run");
        const SimResult r = session.run(RunRequest::perCore(traces));
        sim.add(run.close(), r.cycles(), r.profile);
        rep.check(r.ok(), pt.label,
                  "simulation aborted: " + r.error.describe());

        exp::ExperimentCell cell;
        cell.point = pt;
        cell.opCycles = r.stats.cycles;
        cell.result = r.stats;
        cell.profile = r.profile;
        rep.digest(cellDigest(cell));
        cells.push_back(std::move(cell));
    }
    rep.set("setup_s", setup, "s");
    rep.set("apps.generate_s", generate, "s");
    setSimMetrics(rep, sim);
    expRoundTrip(rep, plan, cells, "scaling");
}

traffic::TrafficPlan
trafficPlan(std::uint64_t seed, double gap)
{
    traffic::TrafficPlan plan;
    plan.streams = kTrafficStreams;
    plan.txnsPerStream = kTrafficTxnsPerStream;
    plan.opsPerTxn = kTrafficOpsPerTxn;
    plan.arrival.kind = traffic::ArrivalKind::Poisson;
    plan.arrival.meanGap = gap;
    plan.policy.admission = traffic::AdmissionKind::Deadline;
    plan.policy.deadline = kTrafficDeadline;
    plan.seed = seed;
    return plan;
}

/** Steady-state goodput in transactions per kilocycle. */
double
goodputPerKcyc(const traffic::OverloadResult &o)
{
    return o.steadyHorizon == 0
               ? 0.0
               : static_cast<double>(o.steadyGoodput) * 1000.0 /
                     static_cast<double>(o.steadyHorizon);
}

void
runTraffic(Rep &rep)
{
    exp::ExperimentPlan plan;
    for (Config cfg : kAllConfigs) {
        // One input per configuration: its offered loads must share
        // the machine run.
        const std::uint64_t seed =
            subSeed(rep.seed, static_cast<std::uint64_t>(cfg));
        for (double gap : kTrafficGaps) {
            exp::ExperimentPoint pt;
            pt.label = std::string(configName(cfg)) + "/g" +
                       std::to_string(static_cast<long long>(gap));
            pt.config = cfg;
            pt.simParams =
                SimConfig::paper(cfg).withCoreCount(kTrafficCores)
                    .params();
            pt.traffic = true;
            pt.trafficPlan = trafficPlan(seed, gap);
            plan.add(std::move(pt));
        }
    }

    SimTotals sim;
    double setup = 0.0;
    double generate = 0.0;
    double configInsts = 0.0;
    double buildProbeS = 0.0;
    double replayProbeS = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::map<Config, std::vector<Cycle>> machineCycles;
    std::vector<exp::ExperimentCell> cells;
    for (const exp::ExperimentPoint &pt : plan.points()) {
        rep.beginCell(pt.label);
        perf::Span cellSpan(rep.tracer, "bench.cell");
        const traffic::TrafficPlan &tp = pt.trafficPlan;
        if (machineCycles[pt.config].empty()) {
            // The per-core traces are arrival-independent, so one
            // standalone build per configuration is the workload's
            // input generation; Session::run rebuilds it per cell.
            perf::Span gen(rep.tracer, "traffic.build");
            const traffic::TrafficWorkload wl =
                traffic::buildTrafficWorkload(tp, pt.config,
                                              kTrafficCores);
            const double g = gen.close();
            generate += g;
            setup += g;
            configInsts = 0.0;
            for (const Trace &t : wl.traces)
                configInsts += static_cast<double>(t.size());
        }
        sim.insts += configInsts;
        perf::Span ctor(rep.tracer, "sim.session");
        Session session(
            SimConfig::paper(pt.config).withCoreCount(kTrafficCores));
        setup += ctor.close();
        perf::Span run(rep.tracer, "sim.run");
        const SimResult r = session.run(RunRequest::ofTraffic(tp));
        sim.add(run.close(), r.cycles(), r.profile);
        rep.check(r.ok(), pt.label,
                  "simulation aborted: " + r.error.describe());

        const traffic::OverloadResult &ov = r.stats.traffic.overload;
        rep.check(ov.offered == ov.completed + ov.failures &&
                      ov.completed == ov.goodput + ov.timeouts,
                  pt.label,
                  "overload conservation: offered != goodput + "
                  "timeouts + failures");
        rep.check(ov.offered == static_cast<std::uint64_t>(
                                    kTrafficStreams) *
                                    kTrafficTxnsPerStream,
                  pt.label, "offered count differs from the plan");
        offered += ov.offered;
        admitted += ov.admitted;
        machineCycles[pt.config].push_back(r.stats.cycles);
        rep.check(r.stats.cycles == machineCycles[pt.config].front(),
                  pt.label,
                  "machine run differs across offered loads");

        if (rep.traced) {
            // Probe: the trace build and the arrival replay that
            // Session::run performs internally, called standalone on
            // this session's completions.
            perf::Span b(rep.tracer, "traffic.build", true);
            const traffic::TrafficWorkload wl =
                traffic::buildTrafficWorkload(tp, pt.config,
                                              kTrafficCores);
            buildProbeS += b.close();
            std::vector<std::vector<Cycle>> completions;
            for (unsigned c = 0; c < session.system().coreCount(); ++c)
                completions.push_back(session.system().completionCycles(c));
            const NvmDevice &nvm =
                session.system().mem().controller().nvm();
            traffic::BackpressureSignal signal;
            signal.occupancyPermille = nvm.meanOccupancyPermille();
            signal.rejectPermille = nvm.rejectPermille();
            signal.transientRejects = nvm.stats().transientRejects;
            signal.bufferFullRejects = nvm.stats().bufferFullRejects;
            perf::Span rp(rep.tracer, "traffic.replay", true);
            const traffic::TrafficResult probe =
                traffic::computeTrafficResult(tp, wl, completions,
                                              signal);
            replayProbeS += rp.close();
            Digest a;
            Digest b2;
            digestTraffic(a, probe);
            digestTraffic(b2, r.stats.traffic);
            rep.check(a.value() == b2.value(), pt.label,
                      "probe replay differs from the in-path record");
        }

        exp::ExperimentCell cell;
        cell.point = pt;
        cell.opCycles = r.stats.cycles;
        cell.result = r.stats;
        cell.profile = r.profile;
        rep.digest(cellDigest(cell));
        cells.push_back(std::move(cell));
    }
    rep.set("setup_s", setup, "s");
    rep.set("apps.generate_s", generate, "s");
    setSimMetrics(rep, sim);
    expRoundTrip(rep, plan, cells, "traffic");

    if (rep.traced) {
        rep.set("traffic.build_s", buildProbeS, "s");
        rep.set("traffic.replay_s", replayProbeS, "s");
    }
    rep.set("traffic.admit_ratio",
            static_cast<double>(admitted) / static_cast<double>(offered),
            "ratio");

    // Fidelity: the WB configuration's serving numbers.
    double maxRate = 0.0;
    for (const exp::ExperimentCell &c : cells) {
        if (c.point.config != Config::WB)
            continue;
        const traffic::TrafficResult &t = c.result.traffic;
        const double gap = c.point.trafficPlan.arrival.meanGap;
        const double rate = kTrafficStreams * 1000.0 / gap;
        if (t.openSteady.p99 <= kTrafficP99Limit)
            maxRate = std::max(maxRate, rate);
        if (gap == kTrafficHeadlineGap) {
            rep.set("open_p99_cyc",
                    static_cast<double>(t.openSteady.p99), "cyc");
            rep.set("open_p99_samples",
                    static_cast<double>(t.openSteady.count), "count");
        }
        if (gap == kTrafficOverloadGap)
            rep.set("goodput_per_kcyc", goodputPerKcyc(t.overload),
                    "1/kcyc");
    }
    rep.set("max_rate_per_kcyc", maxRate, "1/kcyc");
}

/** Running sums over the crash workload's checks. */
struct CrashTotals
{
    double checkS = 0.0;
    double storeS = 0.0;
    double loadS = 0.0;
    double jsonS = 0.0;
    double judged = 0.0;
    double states = 0.0;
    double unique = 0.0;
    double edges = 0.0;
};

/**
 * Record one check's report against the cells its configurations
 * opened: digests, verdicts and tallies.  Then time the fault layer's
 * own encoders on it -- the wire-format round trip and the JSON
 * artifact.  @return each configuration's enumerated state count.
 */
template <class Report, class Result>
std::vector<std::uint64_t>
recordCheck(Rep &rep, const Report &report,
            std::string (*serialize)(const Result &),
            std::optional<Result> (*deserialize)(const std::string &),
            std::string (*toJson)(const Report &), CrashTotals &t)
{
    const std::size_t first = rep.digests.size() - report.configs.size();
    std::vector<std::uint64_t> states;
    for (std::size_t i = 0; i < report.configs.size(); ++i) {
        const Result &c = report.configs[i];
        rep.digests[first + i].second = checkDigest(c);
        rep.check(report.ok() && c.violations == 0 && !c.truncated,
                  rep.digests[first + i].first,
                  "check failed: " + report.describe());
        t.judged += static_cast<double>(c.states + c.tornVariants);
        t.states += static_cast<double>(c.states);
        t.unique += static_cast<double>(c.uniqueImages);
        t.edges += static_cast<double>(c.orderStats.total());
        states.push_back(c.states);
    }

    std::vector<std::string> wire;
    perf::Span store(rep.tracer, "fault.wire_store");
    for (const Result &c : report.configs)
        wire.push_back(serialize(c));
    t.storeS += store.close();
    std::vector<bool> same;
    perf::Span load(rep.tracer, "fault.wire_load");
    for (std::size_t i = 0; i < wire.size(); ++i) {
        const std::optional<Result> back = deserialize(wire[i]);
        same.push_back(back && checkDigest(*back) ==
                                   checkDigest(report.configs[i]));
    }
    t.loadS += load.close();
    perf::Span json(rep.tracer, "fault.json");
    const std::string text = toJson(report);
    t.jsonS += json.close();
    for (std::size_t i = 0; i < same.size(); ++i) {
        rep.check(same[i] && !text.empty(), rep.digests[first + i].first,
                  "wire-format or JSON encoding lost the result");
    }
    return states;
}

void
runCrash(Rep &rep)
{
    const std::vector<Config> configs{Config::B, Config::IQ, Config::WB};
    SimTotals sim;
    CrashTotals t;
    double setup = 0.0;
    double orderS = 0.0;
    double enumS = 0.0;

    for (const CrashCheck &chk : kCrashChecks) {
        // Set-up: build and generate each configuration's checked
        // program; a traced run then simulates it for the probes.
        std::vector<std::unique_ptr<WorkloadHarness>> apps;
        std::vector<std::unique_ptr<ConcurrentHarness>> concs;
        ModelCheckOptions mo;
        ConcCheckOptions co;
        mo.app = chk.app;
        mo.seed = rep.seed;
        mo.spec = RunSpec{chk.txns, chk.opsPerTxn, kCrashProgramSeed};
        mo.configs = configs;
        mo.maxStates = 0;
        co.app = chk.concApp;
        co.seed = rep.seed;
        co.cores = chk.cores;
        co.opsPerCore = chk.opsPerCore;
        co.workloadSeed = kCrashConcWorkloadSeed;
        co.configs = configs;
        co.maxStates = 0;
        for (Config cfg : configs) {
            rep.beginCell(std::string(chk.name) + "/" +
                          std::string(configName(cfg)));
            perf::Span gen(rep.tracer, "apps.generate");
            if (chk.conc) {
                ConcParams p;
                p.cfg = cfg;
                p.cores = co.cores;
                p.opsPerCore = co.opsPerCore;
                p.seed = co.workloadSeed;
                p.paced = true;
                concs.push_back(std::make_unique<ConcurrentHarness>(
                    co.app, p, co.mediaFactor));
                concs.back()->generate();
                for (const Trace &tr : concs.back()->traces())
                    sim.insts += static_cast<double>(tr.size());
            } else {
                apps.push_back(std::make_unique<WorkloadHarness>(
                    mo.app, cfg, mo.spec, mo.appParams));
                apps.back()->enableAudit();
                apps.back()->generate();
                sim.insts +=
                    static_cast<double>(apps.back()->trace().size());
            }
            setup += gen.close();
        }

        rep.tracer.setCell(chk.name);
        std::vector<std::uint64_t> inPathStates;
        if (chk.conc) {
            perf::Span run(rep.tracer, "fault.run_conc_check");
            const ConcCheckReport report = runConcCheck(co);
            t.checkS += run.close();
            inPathStates = recordCheck(rep, report,
                                       serializeConcCheckResult,
                                       deserializeConcCheckResult,
                                       concCheckToJson, t);
        } else {
            perf::Span run(rep.tracer, "fault.run_model_check");
            const ModelCheckReport report = runModelCheck(mo);
            t.checkS += run.close();
            inPathStates = recordCheck(rep, report,
                                       serializeModelCheckResult,
                                       deserializeModelCheckResult,
                                       modelCheckToJson, t);
        }

        if (!rep.traced)
            continue;
        // Probes: the simulate, persist-order and enumeration steps
        // the in-path check performs, called standalone on the
        // set-up harnesses; the enumeration visitor only counts.
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string label = std::string(chk.name) + "/" +
                                      std::string(configName(configs[i]));
            rep.tracer.setCell(label);
            {
                perf::Span run(rep.tracer, "sim.simulate", true);
                const Cycle cycles = chk.conc ? concs[i]->simulateChecked()
                                              : apps[i]->simulate();
                sim.add(run.close(), cycles,
                        chk.conc ? concs[i]->system().profile()
                                 : apps[i]->system().profile());
            }
            perf::Span order(rep.tracer, "fault.order", true);
            const PersistOrderGraph graph =
                chk.conc ? buildConcPersistOrder(*concs[i])
                         : buildPersistOrder(*apps[i]);
            orderS += order.close();
            std::uint64_t visited = 0;
            perf::Span enumerate(rep.tracer, "fault.enum", true);
            const EnumerationStats st = forEachDurableSet(
                graph, EnumerationLimits{},
                [&visited](const DurableSetView &) {
                    ++visited;
                    return true;
                });
            enumS += enumerate.close();
            rep.check(st.states == inPathStates[i] &&
                          visited == st.states,
                      label,
                      "probe enumeration count differs from the "
                      "in-path check");
        }
    }

    rep.set("setup_s", setup, "s");
    rep.set("apps.generate_s", setup, "s");
    rep.set("apps.trace_insts", sim.insts, "count");
    rep.set("states_per_s", t.judged / t.checkS, "1/s");
    rep.set("exp.store_ms", t.storeS * 1e3, "ms");
    rep.set("exp.load_ms", t.loadS * 1e3, "ms");
    rep.set("exp.json_ms", t.jsonS * 1e3, "ms");
    rep.set("fault.check_s", t.checkS, "s");
    rep.set("fault.states", t.states, "count");
    rep.set("fault.judged_states", t.judged, "count");
    rep.set("fault.order_edges", t.edges, "count");
    rep.set("fault.unique_images", t.unique, "count");
    rep.set("fault.dedup_ratio", t.unique / t.judged, "ratio");
    if (rep.traced) {
        setSimMetrics(rep, sim);
        rep.set("fault.sim_s", sim.seconds, "s");
        rep.set("fault.order_s", orderS, "s");
        rep.set("fault.enum_s", enumS, "s");
        rep.set("fault.judge_s",
                t.checkS - setup - sim.seconds - orderS - enumS, "s");
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

bool
writeReport(const Rep &rep, const std::string &workload,
            const std::vector<std::pair<std::string, double>> &units,
            const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, "
                    "\"traced\": %s,\n \"metrics\": {",
                 workload.c_str(),
                 static_cast<unsigned long long>(rep.seed),
                 rep.traced ? "true" : "false");
    const char *sep = "";
    for (const auto &[name, m] : rep.metrics) {
        std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     sep, name.c_str(), m.value, m.unit.c_str());
        sep = ",";
    }
    std::fprintf(f, "},\n \"self_s\": {");
    sep = "";
    for (const auto &[layer, s] : rep.tracer.selfSeconds()) {
        std::fprintf(f, "%s\"%s\": %.17g", sep, layer.c_str(), s);
        sep = ", ";
    }
    std::fprintf(f, "},\n \"units\": [");
    sep = "";
    for (const auto &[key, s] : units) {
        std::fprintf(f, "%s\n  [\"%s\", %.17g]", sep, key.c_str(), s);
        sep = ",";
    }
    std::fprintf(f, "],\n \"cells\": [");
    sep = "";
    for (const auto &[label, d] : rep.digests) {
        std::fprintf(f, "%s\n  [\"%s\", \"%016llx\"]", sep,
                     label.c_str(), static_cast<unsigned long long>(d));
        sep = ",";
    }
    std::fprintf(f, "],\n \"failures\": {");
    sep = "";
    for (const auto &[label, what] : rep.failures) {
        std::fprintf(f, "%s\n  \"%s\": [", sep, label.c_str());
        const char *sep2 = "";
        for (const std::string &w : what) {
            std::fprintf(f, "%s\"%s\"", sep2, jsonEscape(w).c_str());
            sep2 = ", ";
        }
        std::fprintf(f, "]");
        sep = ",";
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ede_perf: %s\nusage: ede_perf --workload "
                 "fig9|scaling|traffic|crash --seed N --out FILE "
                 "--scratch DIR [--trace] [--trace-out FILE]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string out;
    std::string traceOut;
    Rep rep;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--trace") {
            rep.traced = true;
        } else if (arg == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            char *end = nullptr;
            rep.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                return usage("--seed takes an unsigned integer");
        } else if (arg == "--out" && hasValue) {
            out = argv[++i];
        } else if (arg == "--scratch" && hasValue) {
            rep.scratch = argv[++i];
        } else if (arg == "--trace-out" && hasValue) {
            traceOut = argv[++i];
        } else {
            return usage(("unknown or incomplete argument '" + arg + "'")
                             .c_str());
        }
    }
    if (out.empty() || rep.scratch.empty())
        return usage("--out and --scratch are required");

    const std::map<std::string, void (*)(Rep &)> workloads{
        {"fig9", runFig9},
        {"scaling", runScaling},
        {"traffic", runTraffic},
        {"crash", runCrash},
    };
    const auto it = workloads.find(workload);
    if (it == workloads.end())
        return usage("unknown workload");

    std::filesystem::create_directories(rep.scratch);
    int rootId = 0;
    {
        perf::Span root(rep.tracer, "bench.rep");
        rootId = root.id();
        it->second(rep);
    }
    double wall = 0.0;
    for (const auto &unit : rep.tracer.units(rootId))
        wall += unit.second;
    rep.set("wall_s", wall, "s");
    if (rep.traced)
        rep.set("probe_s", rep.tracer.probeSeconds(), "s");

    if (rep.traced && !traceOut.empty() &&
        !rep.tracer.writeChromeTrace(traceOut)) {
        std::fprintf(stderr, "ede_perf: cannot write %s\n",
                     traceOut.c_str());
        return 1;
    }
    if (!writeReport(rep, workload, rep.tracer.units(rootId), out)) {
        std::fprintf(stderr, "ede_perf: cannot write %s\n", out.c_str());
        return 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(rep.scratch, ec);
    return 0;
}
