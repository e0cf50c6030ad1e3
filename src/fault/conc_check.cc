#include "fault/conc_check.hh"

#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "exp/fields.hh"
#include "exp/scheduler.hh"
#include "fault/model_check/checker.hh"

namespace ede {

PersistOrderGraph
buildConcPersistOrder(const ConcurrentHarness &h)
{
    return buildJointPersistOrder(
        h.traces(), h.system().persistEvents(),
        h.system().mediaWriteEvents(), h.completionMatrix(),
        /*setupCompleteCycle=*/0, h.mediaLineBytes());
}

SeededConcBug
seedMissingCrossCoreWaitBug(std::vector<Trace> &traces)
{
    SeededConcBug bug;
    const auto cores = static_cast<unsigned>(traces.size());
    // Non-zero cores first: the campaign's crash framing holds core 0
    // mid-transaction, so a consumer-side bug on another core is the
    // more interesting plant when both exist.
    for (unsigned step = 0; step < cores; ++step) {
        const unsigned c = (1 + step) % cores;
        Trace &trace = traces[c];
        for (std::size_t t = 0; t < trace.size(); ++t) {
            StaticInst &si = trace.at(t).si;
            if (si.op != Op::WaitKey)
                continue;
            if (!edkIsReal(si.edkUse) ||
                si.edkUse == concCoreKey(c)) {
                continue;  // Local drain: no cross-core edge here.
            }
            si.edkUse = concCoreKey(c);
            bug.opIdx = t;
            bug.core = c;
            return bug;
        }
    }
    return bug;
}

std::string
ConcCounterexample::describe() const
{
    std::ostringstream os;
    os << "{invariant=" << invariant << ", durable=[";
    for (std::size_t i = 0; i < durable.size(); ++i)
        os << (i ? "," : "") << durable[i];
    os << "]";
    if (tornIdx != kNoEvent) {
        os << ", torn=" << tornIdx << " mask=0x" << std::hex
           << tornMask << std::dec;
    }
    os << ", imageHash=0x" << std::hex << imageHash << std::dec
       << "}";
    return os.str();
}

namespace {

/** One simulated configuration's artifacts for the check phase. */
struct SimulatedConc
{
    std::unique_ptr<ConcurrentHarness> harness;
    Cycle cycles = 0;
    SeededConcBug bug;
};

SimulatedConc
simulateConcConfig(const ConcCheckOptions &options, Config cfg)
{
    const LogJobTag tag("conc-check/" +
                        std::string(configName(cfg)));
    SimulatedConc sim;
    ConcParams p;
    p.cfg = cfg;
    p.cores = options.cores;
    p.opsPerCore = options.opsPerCore;
    p.seed = options.workloadSeed;
    p.paced = true;  // The checkers require model-order execution.
    sim.harness = std::make_unique<ConcurrentHarness>(
        options.app, p, options.mediaFactor);
    sim.harness->generate();
    if (options.seedBug)
        sim.bug = seedMissingCrossCoreWaitBug(sim.harness->traces());
    sim.cycles = sim.harness->simulateChecked();
    return sim;
}

/**
 * Enumerate and judge every cross-core durable state of one
 * simulated configuration (serial within a configuration: the dedup
 * cache is shared across states).
 */
ConcCheckConfigResult
checkConcConfig(const ConcCheckOptions &options, Config cfg,
                const SimulatedConc &sim)
{
    const ConcurrentHarness &h = *sim.harness;
    ConcCheckConfigResult result;
    result.config = cfg;
    result.cycles = sim.cycles;
    result.seededBugOpIdx = sim.bug.opIdx;
    result.seededBugCore = sim.bug.core;

    const PersistOrderGraph graph = buildConcPersistOrder(h);
    const ConcModel &model = h.model();
    DurableSetChecker checker(
        h.system().persistEvents(), h.baselineNvm(), graph,
        [&model](MemoryImage &img) {
            DurableSetChecker::StateVerdict v;
            v.invariant = checkConcInvariants(model, img);
            v.appOk = v.invariant == nullptr;
            return v;
        });
    checkDurableSets(options,
                     mixSeed(options.seed, 0x70c0 ^ configSalt(cfg)),
                     graph, checker, result);
    return result;
}

constexpr const char *kConcCheckResultMagic = "ede-concheck-config";

} // namespace

bool
ConcCheckReport::ok() const
{
    if (!quarantined.empty())
        return false;
    for (const ConcCheckConfigResult &c : configs) {
        const bool planted =
            options.seedBug && c.seededBugOpIdx != kNoEvent;
        if (planted) {
            // A checker blind to its own seeded WAIT bug proves
            // nothing; non-detection fails the run.
            if (c.violations == 0)
                return false;
        } else if (c.violations != 0) {
            return false;
        }
    }
    return true;
}

std::string
ConcCheckReport::describe() const
{
    std::ostringstream os;
    os << "conc check: app=" << concAppName(options.app) << " seed="
       << options.seed << " cores=" << options.cores << " ops/core="
       << options.opsPerCore << " mediaFactor="
       << options.mediaFactor << " drainLines=";
    if (options.drainLines == FaultPlan::kDrainAll)
        os << "all";
    else
        os << options.drainLines;
    os << " maxStates=" << options.maxStates
       << (options.seedBug ? " SEEDED-BUG" : "") << "\n";
    for (const ConcCheckConfigResult &c : configs) {
        os << "  " << configName(c.config) << ": " << c.states
           << " durable sets";
        if (c.truncated)
            os << " (TRUNCATED)";
        os << " + " << c.tornVariants << " torn -> "
           << c.uniqueImages << " unique images, "
           << c.recoveredClean << " clean, " << c.violations
           << " violating  (" << c.freeEvents << " free events, "
           << c.orderStats.total() << " edges, "
           << c.orderStats.crossWait << " cross-wait, "
           << c.orderStats.crossLine << " cross-line)\n";
        if (options.seedBug) {
            if (c.seededBugOpIdx != kNoEvent) {
                os << "    seeded cross-core WAIT bug at core "
                   << c.seededBugCore << " op[" << c.seededBugOpIdx
                   << "]: "
                   << (c.violations ? "DETECTED" : "NOT DETECTED")
                   << "\n";
            } else {
                os << "    seeded bug not plantable (no cross-core "
                      "WAIT in this configuration)\n";
            }
        }
        for (const ConcCounterexample &cex : c.counterexamples)
            os << "    COUNTEREXAMPLE " << cex.describe() << "\n";
    }
    for (const QuarantinedConfig &q : quarantined) {
        os << "  " << configName(q.config) << ": QUARANTINED ("
           << q.failure.describe() << ")\n";
    }
    os << (ok() ? "  conc check ok\n" : "  CONC CHECK FAILED\n");
    return os.str();
}

std::string
serializeConcCheckResult(const ConcCheckConfigResult &result)
{
    return exp::toWire(kConcCheckResultMagic, result);
}

std::optional<ConcCheckConfigResult>
deserializeConcCheckResult(const std::string &text)
{
    return exp::fromWire<ConcCheckConfigResult>(text,
                                                kConcCheckResultMagic);
}

std::uint64_t
concCheckSweepId(const ConcCheckOptions &options)
{
    return exp::fingerprintOf("concheck", options);
}

std::string
concCheckToJson(const ConcCheckReport &report)
{
    return exp::jsonDocument("conc_check", report, /*blockDepth=*/2);
}

ConcCheckReport
runConcCheck(const ConcCheckOptions &options)
{
    return runConfigSweep<ConcCheckReport>(
        {"conc-check", "conc-check", "concheck"}, options,
        concCheckSweepId(options), deserializeConcCheckResult,
        [&](Config cfg) {
            return serializeConcCheckResult(checkConcConfig(
                options, cfg, simulateConcConfig(options, cfg)));
        },
        [&] {
            const exp::Scheduler sched(options.jobs);
            return sched.map<ConcCheckConfigResult>(
                options.configs.size(), [&](std::size_t i) {
                    const SimulatedConc sim =
                        simulateConcConfig(options, options.configs[i]);
                    return checkConcConfig(options, options.configs[i],
                                           sim);
                });
        });
}

} // namespace ede
