#include "fault/campaign.hh"

#include <algorithm>
#include <sstream>

#include "apps/harness.hh"
#include "common/logging.hh"
#include "exp/fields.hh"
#include "fault/model_check/checker.hh"

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

/**
 * Simulate one configuration's workload with the transient-fault
 * injector installed, then classify its crash points: the campaign's
 * per-configuration job.
 */
CampaignConfigResult
campaignConfig(const CampaignOptions &options, Config cfg)
{
    const LogJobTag tag("campaign/" + std::string(configName(cfg)));
    WorkloadHarness h(options.app, cfg, options.spec);
    h.enableAudit();

    // Transient accept faults pressure the whole simulated run; the
    // controller's bounded-backoff retries must absorb them without
    // wedging any configuration.
    FaultPlan sim_plan;
    sim_plan.seed = mixSeed(options.seed, configSalt(cfg));
    sim_plan.acceptFaultRate = options.acceptFaultRate;
    h.system().mem().controller().nvm().setAcceptFaultHook(
        makeAcceptFaultInjector(sim_plan));

    h.generate();
    h.simulate();

    CampaignConfigResult result;
    result.config = cfg;
    result.cycles = h.system().core().stats().cycles;
    std::vector<CrashPointResult> points;
    for (Cycle c : selectCrashPoints(h, options.pointsPerConfig))
        points.emplace_back().crashCycle = c;

    // The run's persist-order partial order generalizes each point's
    // torn persist from "last accepted" to any frontier event of the
    // durable prefix (see applyFaultyPersistEvents).
    const PersistOrderGraph order = buildPersistOrder(h);
    classifyCrashPoints(h, order, undoLogJudge(h), std::move(points),
                        options.seed, /*pointSalt=*/0x6001, result);
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
        campaignSweepId(options), serializeConfigResult,
        deserializeConfigResult,
        [&](Config cfg) { return campaignConfig(options, cfg); });
}

} // namespace ede
