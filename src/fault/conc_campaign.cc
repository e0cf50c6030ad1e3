#include "fault/conc_campaign.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "exp/fields.hh"
#include "fault/conc_check.hh"
#include "fault/fault_plan.hh"
#include "fault/model_check/checker.hh"

namespace ede {

namespace {

/**
 * Does some core other than 0 have an accepted persist whose media
 * write is still outstanding at cycle @p c?  That is the campaign's
 * target window: core 0's crash image then depends on *remote*
 * buffered state.
 */
bool
remoteOutstandingAt(const PersistOrderGraph &g,
                    const std::vector<PersistEvent> &events, Cycle c)
{
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        if (events[i].core == 0)
            continue;
        const PersistNode &n = g.nodes[i];
        if (n.accept <= c &&
            (n.mediaCycle == kNoCycle || n.mediaCycle > c)) {
            return true;
        }
    }
    return false;
}

/**
 * Candidate crash cycles at persist boundaries, stratified toward
 * the remote-outstanding window: when the budget is smaller than the
 * candidate set, ~3/4 of it goes to cycles where a remote core's
 * media writes are pending and the rest to the others, each picked
 * evenly spaced.  @p budget 0 means exhaustive.  Each point's record
 * carries its crash cycle and remote-outstanding flag.
 */
std::vector<ConcCrashPointResult>
selectConcCrashPoints(const PersistOrderGraph &g,
                      const std::vector<PersistEvent> &events,
                      std::size_t budget)
{
    std::vector<Cycle> candidates;
    for (const PersistEvent &ev : events) {
        candidates.push_back(ev.cycle);
        candidates.push_back(ev.cycle + 1);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());

    std::vector<Cycle> remote, local;
    for (Cycle c : candidates) {
        (remoteOutstandingAt(g, events, c) ? remote : local)
            .push_back(c);
    }

    std::vector<Cycle> pickedRemote = remote, pickedLocal = local;
    if (budget != 0 && candidates.size() > budget) {
        std::size_t takeRemote = std::min(
            remote.size(),
            std::max<std::size_t>(remote.empty() ? 0 : 1,
                                  budget * 3 / 4));
        std::size_t takeLocal =
            std::min(local.size(), budget - takeRemote);
        // Spare budget spills back into the richer stratum.
        takeRemote = std::min(remote.size(), budget - takeLocal);

        auto spaced = [](const std::vector<Cycle> &from,
                         std::size_t take) {
            std::vector<Cycle> out;
            out.reserve(take);
            for (std::size_t j = 0; j < take; ++j)
                out.push_back(from[j * from.size() / take]);
            return out;
        };
        pickedRemote =
            takeRemote ? spaced(remote, takeRemote)
                       : std::vector<Cycle>{};
        pickedLocal = takeLocal ? spaced(local, takeLocal)
                                : std::vector<Cycle>{};
    }

    std::vector<std::pair<Cycle, bool>> merged;
    merged.reserve(pickedRemote.size() + pickedLocal.size());
    for (Cycle c : pickedRemote)
        merged.emplace_back(c, true);
    for (Cycle c : pickedLocal)
        merged.emplace_back(c, false);
    std::sort(merged.begin(), merged.end());

    std::vector<ConcCrashPointResult> points(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        points[i].crashCycle = merged[i].first;
        points[i].remoteOutstanding = merged[i].second;
    }
    return points;
}

/**
 * Simulate one configuration's kernel with the transient-fault
 * injector installed, then classify its crash points: the
 * campaign's per-configuration job.
 */
ConcCampaignConfigResult
concCampaignConfig(const ConcCampaignOptions &options, Config cfg)
{
    const LogJobTag tag("conc-campaign/" +
                        std::string(configName(cfg)));
    ConcParams p;
    p.cfg = cfg;
    p.cores = options.cores;
    p.opsPerCore = options.opsPerCore;
    p.seed = options.workloadSeed;
    p.paced = true;
    ConcurrentHarness h(options.app, p, options.mediaFactor);

    // Transient accept faults pressure the whole simulated run, same
    // as the single-core campaign: the controller's retries must
    // absorb them on every core.
    FaultPlan sim_plan;
    sim_plan.seed = mixSeed(options.seed, configSalt(cfg));
    sim_plan.acceptFaultRate = options.acceptFaultRate;
    h.system().mem().controller().nvm().setAcceptFaultHook(
        makeAcceptFaultInjector(sim_plan));

    h.generate();
    ConcCampaignConfigResult result;
    result.config = cfg;
    result.cycles = h.simulateChecked();

    const PersistOrderGraph order = buildConcPersistOrder(h);
    classifyCrashPoints(h, order, concJudge(h.model()),
                        selectConcCrashPoints(order,
                                              h.system().persistEvents(),
                                              options.pointsPerConfig),
                        options.seed, /*pointSalt=*/0x6101, result);
    return result;
}

constexpr const char *kConcCampaignResultMagic =
    "ede-conc-campaign";

} // namespace

std::string
ConcReproducer::describe() const
{
    std::ostringstream os;
    os << "{seed=" << seed << ", config=" << configName(config)
       << ", crashCycle=" << crashCycle << ", invariant="
       << (invariant.empty() ? "<none>" : invariant)
       << ", faultPlan={" << plan.describe() << "}}";
    return os.str();
}

bool
ConcCampaignReport::safeConfigsClean() const
{
    for (const ConcCampaignConfigResult &c : configs) {
        if (!configIsUnsafe(c.config) && c.unrecoverable > 0)
            return false;
    }
    return true;
}

bool
ConcCampaignReport::ok() const
{
    return quarantined.empty() && safeConfigsClean();
}

std::string
ConcCampaignReport::describe() const
{
    std::ostringstream os;
    os << "conc campaign: app=" << concAppName(options.app)
       << " seed=" << options.seed << " cores=" << options.cores
       << " ops/core=" << options.opsPerCore << " points/config="
       << (options.pointsPerConfig
               ? std::to_string(options.pointsPerConfig)
               : std::string("exhaustive"))
       << " mediaFactor=" << options.mediaFactor
       << " acceptFaultRate=" << options.acceptFaultRate << "\n";
    for (const ConcCampaignConfigResult &c : configs) {
        os << "  " << configName(c.config) << ": " << c.points
           << " points (" << c.remotePoints
           << " remote-outstanding) -> " << c.recovered
           << " recovered, " << c.unrecoverable
           << " unrecoverable  (run=" << c.cycles
           << " cycles, transientRejects=" << c.transientRejects
           << ")\n";
        for (const ConcReproducer &rep : c.failures)
            os << "    FAILURE " << rep.describe() << "\n";
    }
    for (const QuarantinedConfig &q : quarantined) {
        os << "  " << configName(q.config) << ": QUARANTINED ("
           << q.failure.describe() << ")\n";
    }
    os << (safeConfigsClean()
               ? "  safe configurations clean across cores\n"
               : "  SAFE CONFIGURATION FAILURES above\n");
    if (!quarantined.empty()) {
        os << "  " << quarantined.size()
           << " configuration(s) quarantined -- no verdict for them\n";
    }
    return os.str();
}

std::string
serializeConcCampaignResult(const ConcCampaignConfigResult &result)
{
    return exp::toWire(kConcCampaignResultMagic, result);
}

std::optional<ConcCampaignConfigResult>
deserializeConcCampaignResult(const std::string &text)
{
    return exp::fromWire<ConcCampaignConfigResult>(
        text, kConcCampaignResultMagic);
}

std::uint64_t
concCampaignSweepId(const ConcCampaignOptions &options)
{
    return exp::fingerprintOf("conccampaign", options);
}

std::string
concCampaignToJson(const ConcCampaignReport &report)
{
    return exp::jsonDocument("conc_campaign", report, /*blockDepth=*/2);
}

ConcCampaignReport
runConcCampaign(const ConcCampaignOptions &options)
{
    return runConfigSweep<ConcCampaignReport>(
        {"conc-campaign", "conc-campaign", "conccampaign"}, options,
        concCampaignSweepId(options), serializeConcCampaignResult,
        deserializeConcCampaignResult,
        [&](Config cfg) { return concCampaignConfig(options, cfg); });
}

} // namespace ede
