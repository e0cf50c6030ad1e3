#include "fault/campaign.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "apps/harness.hh"
#include "common/logging.hh"
#include "exp/fields.hh"
#include "exp/scheduler.hh"
#include "fault/crash_image.hh"
#include "fault/model_check/checker.hh"
#include "nvm/undo_log.hh"
#include "sim/session.hh"

namespace ede {

namespace {

/**
 * Candidate crash cycles at persist boundaries (each accept cycle and
 * the cycle after it), stratified over inter-commit windows when the
 * budget is smaller than the candidate set.  @p budget 0 or larger
 * than the candidate count means exhaustive.
 */
std::vector<Cycle>
selectCrashPoints(const WorkloadHarness &h, std::size_t budget)
{
    const Cycle setup_done = h.setupCompleteCycle();
    std::vector<Cycle> candidates;
    for (const PersistEvent &ev : h.system().persistEvents()) {
        if (ev.cycle < setup_done)
            continue;
        candidates.push_back(ev.cycle);
        candidates.push_back(ev.cycle + 1);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());
    if (budget == 0 || candidates.size() <= budget)
        return candidates;

    // Group candidates by the inter-commit window they fall in, so
    // the thinned set still probes every transaction's commit
    // protocol instead of only the persist-dense stretches.
    std::vector<Cycle> commits = h.commitCycles();
    std::sort(commits.begin(), commits.end());
    std::vector<std::vector<Cycle>> strata(commits.size() + 1);
    for (Cycle c : candidates) {
        const std::size_t s = static_cast<std::size_t>(
            std::lower_bound(commits.begin(), commits.end(), c) -
            commits.begin());
        strata[s].push_back(c);
    }
    std::erase_if(strata,
                  [](const std::vector<Cycle> &s) { return s.empty(); });

    // Even per-stratum quotas; spare budget spills into the strata
    // that still have unpicked candidates.
    const std::size_t n = strata.size();
    std::vector<std::size_t> take(n, 0);
    std::size_t remaining = budget;
    for (std::size_t i = 0; i < n && remaining; ++i) {
        take[i] = std::min(strata[i].size(),
                           std::max<std::size_t>(1, budget / n));
        remaining -= std::min(remaining, take[i]);
    }
    bool grew = true;
    while (remaining && grew) {
        grew = false;
        for (std::size_t i = 0; i < n && remaining; ++i) {
            if (take[i] < strata[i].size()) {
                ++take[i];
                --remaining;
                grew = true;
            }
        }
    }

    std::vector<Cycle> points;
    points.reserve(budget);
    for (std::size_t i = 0; i < n; ++i) {
        // Evenly spaced picks inside the stratum.
        for (std::size_t j = 0; j < take[i]; ++j)
            points.push_back(strata[i][j * strata[i].size() / take[i]]);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    return points;
}

/** Reconstruct, recover, classify one crash point under @p plan. */
CrashPointResult
classifyPoint(const WorkloadHarness &h, Cycle crashCycle,
              const FaultPlan &plan, const PersistOrderGraph *order)
{
    const System &sys = h.system();
    MemoryImage img = h.baselineNvm();
    applyFaultyPersistEvents(
        img, sys.persistEvents(), sys.mediaWriteEvents(), crashCycle,
        plan, sys.mem().controller().nvm().params().lineBytes, order);
    const RecoveryResult rec =
        recoverUndoLog(img, h.framework().logLayout());

    CrashPointResult r;
    r.crashCycle = crashCycle;
    r.plan = plan;
    r.entriesTorn = rec.entriesTorn;
    if (h.app().checkRecovered(img)) {
        r.outcome = rec.entriesTorn ? CrashOutcome::TornLogDetected
                                    : CrashOutcome::Recovered;
    } else {
        r.outcome = CrashOutcome::Unrecoverable;
    }
    return r;
}

/**
 * Simulate one configuration's workload with the transient-fault
 * injector installed.  Self-contained (own System), so configurations
 * simulate in parallel.
 */
std::unique_ptr<WorkloadHarness>
simulateConfig(const CampaignOptions &options, Config cfg,
               bool checked = false)
{
    const LogJobTag tag("campaign/" + std::string(configName(cfg)));
    auto h = std::make_unique<WorkloadHarness>(options.app, cfg,
                                               options.spec);
    h->enableAudit();

    // Transient accept faults pressure the whole simulated run; the
    // controller's bounded-backoff retries must absorb them without
    // wedging any configuration.
    FaultPlan sim_plan;
    sim_plan.seed = mixSeed(options.seed, configSalt(cfg));
    sim_plan.acceptFaultRate = options.acceptFaultRate;
    h->system().mem().controller().nvm().setAcceptFaultHook(
        makeAcceptFaultInjector(sim_plan));

    h->generate();
    if (checked)
        h->simulateChecked();  // SimFaultError, classifiable by a worker.
    else
        h->simulate();
    return h;
}

/**
 * Classify every crash point of one simulated configuration.  The
 * reconstruction of each point is pure given the recorded persist
 * events, so the cells dispatch through the scheduler; tallying and
 * failure shrinking walk the classified points serially in point
 * order, keeping the report byte-identical for any job count.
 */
CampaignConfigResult
classifyConfig(const CampaignOptions &options, Config cfg,
               const WorkloadHarness &h, const exp::Scheduler &sched)
{
    CampaignConfigResult result;
    result.config = cfg;
    result.cycles = h.system().core().stats().cycles;
    result.transientRejects =
        h.system().mem().controller().nvm().stats().transientRejects;

    const std::uint64_t plan_seed =
        mixSeed(options.seed, configSalt(cfg));
    const std::uint32_t wpq_slots =
        h.system().mem().controller().nvm().params().bufferSlots;
    const std::vector<Cycle> points =
        selectCrashPoints(h, options.pointsPerConfig);

    // The run's persist-order partial order generalizes each point's
    // torn persist from "last accepted" to any frontier event of the
    // durable prefix (see applyFaultyPersistEvents).
    const PersistOrderGraph order = buildPersistOrder(h);

    result.results = sched.map<CrashPointResult>(
        points.size(), [&](std::size_t i) {
            const FaultPlan plan = makeFaultPlan(
                mixSeed(plan_seed, 0x6001 + i), wpq_slots);
            return classifyPoint(h, points[i], plan, &order);
        });

    for (std::size_t i = 0; i < points.size(); ++i) {
        const CrashPointResult &r = result.results[i];
        ++result.points;
        switch (r.outcome) {
          case CrashOutcome::Recovered:
            ++result.recovered;
            break;
          case CrashOutcome::TornLogDetected:
            ++result.tornDetected;
            break;
          case CrashOutcome::Unrecoverable:
            ++result.unrecoverable;
            if (!configIsUnsafe(cfg)) {
                Reproducer rep;
                rep.seed = options.seed;
                rep.config = cfg;
                rep.crashCycle = points[i];
                // The reconstruction is pure, so re-classifying each
                // weaker plan is cheap.
                rep.plan = weakestFailingPlan(
                    r.plan, [&](const FaultPlan &p) {
                        return classifyPoint(h, points[i], p, &order)
                                   .outcome ==
                               CrashOutcome::Unrecoverable;
                    });
                result.failures.push_back(std::move(rep));
            }
            break;
        }
    }
    return result;
}

constexpr const char *kConfigResultMagic = "ede-campaign-config";

} // namespace

const char *
crashOutcomeName(CrashOutcome outcome)
{
    switch (outcome) {
      case CrashOutcome::Recovered:
        return "recovered";
      case CrashOutcome::TornLogDetected:
        return "torn-log-detected";
      case CrashOutcome::Unrecoverable:
        return "unrecoverable";
    }
    return "unknown";
}

std::string
Reproducer::describe() const
{
    std::ostringstream os;
    os << "{seed=" << seed << ", config=" << configName(config)
       << ", crashCycle=" << crashCycle << ", faultPlan={"
       << plan.describe() << "}}";
    return os.str();
}

bool
CampaignReport::safeConfigsClean() const
{
    for (const CampaignConfigResult &c : configs) {
        if (!configIsUnsafe(c.config) && c.unrecoverable > 0)
            return false;
    }
    return true;
}

std::string
CampaignReport::describe() const
{
    std::ostringstream os;
    os << "fault campaign: app=" << appName(options.app) << " seed="
       << options.seed << " points/config="
       << (options.pointsPerConfig
               ? std::to_string(options.pointsPerConfig)
               : std::string("exhaustive"))
       << " acceptFaultRate=" << options.acceptFaultRate << "\n";
    for (const CampaignConfigResult &c : configs) {
        os << "  " << configName(c.config) << ": " << c.points
           << " points -> " << c.recovered << " recovered, "
           << c.tornDetected << " torn-log-detected, "
           << c.unrecoverable << " unrecoverable  (run=" << c.cycles
           << " cycles, transientRejects=" << c.transientRejects
           << ")\n";
        for (const Reproducer &rep : c.failures)
            os << "    FAILURE " << rep.describe() << "\n";
    }
    for (const QuarantinedConfig &q : quarantined) {
        os << "  " << configName(q.config) << ": QUARANTINED ("
           << q.failure.describe() << ")\n";
    }
    os << (safeConfigsClean()
               ? "  safe configurations clean (Table III holds)\n"
               : "  SAFE CONFIGURATION FAILURES above\n");
    if (!quarantined.empty()) {
        os << "  " << quarantined.size()
           << " configuration(s) quarantined -- no verdict for them\n";
    }
    return os.str();
}

std::string
serializeConfigResult(const CampaignConfigResult &result)
{
    return exp::toWire(kConfigResultMagic, result);
}

std::optional<CampaignConfigResult>
deserializeConfigResult(const std::string &text)
{
    return exp::fromWire<CampaignConfigResult>(text, kConfigResultMagic);
}

std::uint64_t
campaignSweepId(const CampaignOptions &options)
{
    return exp::fingerprintOf("campaign", options);
}

std::string
campaignToJson(const CampaignReport &report)
{
    return exp::jsonDocument("fault_campaign", report, /*blockDepth=*/2);
}

CampaignReport
runCampaign(const CampaignOptions &options)
{
    return runConfigSweep<CampaignReport>(
        {"campaign", "campaign-result", "campaign"}, options,
        campaignSweepId(options), deserializeConfigResult,
        // The isolated child simulates and classifies serially: the
        // worker *is* the parallel unit.
        [&](Config cfg) {
            const std::unique_ptr<WorkloadHarness> h =
                simulateConfig(options, cfg, /*checked=*/true);
            return serializeConfigResult(
                classifyConfig(options, cfg, *h, exp::Scheduler(1)));
        },
        [&] {
            const exp::Scheduler sched(options.jobs);

            // Phase 1: every configuration's simulation is
            // independent.
            std::vector<std::unique_ptr<WorkloadHarness>> harnesses =
                sched.map<std::unique_ptr<WorkloadHarness>>(
                    options.configs.size(), [&](std::size_t i) {
                        return simulateConfig(options,
                                              options.configs[i]);
                    });

            // Phase 2: per-point classification, parallel within
            // each configuration, tallied in deterministic point
            // order.
            std::vector<CampaignConfigResult> configs;
            for (std::size_t i = 0; i < options.configs.size(); ++i) {
                configs.push_back(classifyConfig(
                    options, options.configs[i], *harnesses[i], sched));
            }
            return configs;
        });
}

} // namespace ede
