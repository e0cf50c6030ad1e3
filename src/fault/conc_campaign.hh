/**
 * @file
 * Multi-core crash-injection campaign.
 *
 * The single-core campaign (fault/campaign.hh) samples crash cycles
 * of one hart's run and pushes each reconstructed image through
 * undo-log recovery.  This campaign runs the concurrent kernels on N
 * cores and aims its samples at the genuinely multi-core failure
 * window: crash cycles where core 0 is mid-operation while a *remote*
 * core (1..N-1) still has accepted-but-undrained persists -- writes
 * the NVM buffer acknowledged but whose media writes are outstanding.
 * Those are the states a fence bug on one core corrupts through
 * another core's durable view.  Crash-point selection stratifies
 * toward that window (remote-outstanding points get ~3/4 of the
 * budget); each image is reconstructed by the shared frontier-torn
 * crash-image builder against the *joint* persist order
 * (persist_order.hh) and judged by the cross-core checker's judge
 * (concJudge: the kernels' recovery oracles).  The crash-point loop
 * itself is the single-core campaign's (classifyCrashPoints).
 *
 * The sweep is the shared per-configuration one (sweep.hh): one
 * forked worker per configuration, exact wire payloads journaled per
 * config, so a SIGKILLed multi-core sweep resumes byte-identically.
 */

#ifndef EDE_FAULT_CONC_CAMPAIGN_HH
#define EDE_FAULT_CONC_CAMPAIGN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/conc_harness.hh"
#include "exp/worker.hh"
#include "fault/campaign.hh"

namespace ede {

/** One sampled multi-core crash point's verdict. */
struct ConcCrashPointResult
{
    Cycle crashCycle = 0;
    CrashOutcome outcome = CrashOutcome::Recovered;
    bool remoteOutstanding = false; ///< Remote media writes pending.
    std::string invariant;          ///< Violated invariant ("" = none).
    FaultPlan plan;
};

void
visitFields(auto &v, FieldsOf<ConcCrashPointResult> auto &r)
{
    v("cycle", r.crashCycle);
    v("outcome", r.outcome, crashOutcomeName);
    v("remote_outstanding", r.remoteOutstanding);
    v("invariant", nullUnless(r.invariant, !r.invariant.empty()));
    v("plan", r.plan);
}

/** A failing multi-core crash point, replayable from scratch. */
struct ConcReproducer
{
    std::uint64_t seed = 0;
    Config config = Config::B;
    Cycle crashCycle = 0;
    FaultPlan plan;
    std::string invariant;

    /** One-line human-readable rendering. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<ConcReproducer> auto &r)
{
    v("seed", r.seed);
    v("config", r.config, configName);
    v("crash_cycle", r.crashCycle);
    v("invariant", nullUnless(r.invariant, !r.invariant.empty()));
    v("plan", r.plan);
}

/** Tallies and failures for one configuration. */
struct ConcCampaignConfigResult
{
    Config config = Config::B;
    Cycle cycles = 0;
    std::uint64_t transientRejects = 0;
    std::uint64_t points = 0;
    std::uint64_t remotePoints = 0;  ///< Remote-outstanding samples.
    std::uint64_t recovered = 0;
    std::uint64_t unrecoverable = 0;
    std::vector<ConcCrashPointResult> results;
    std::vector<ConcReproducer> failures;  ///< Safe configs only.
};

void
visitFields(auto &v, FieldsOf<ConcCampaignConfigResult> auto &r)
{
    v("config", r.config, configName);
    v("cycles", r.cycles);
    v("transient_rejects", r.transientRejects);
    v("points", r.points);
    v("remote_points", r.remotePoints);
    v("recovered", r.recovered);
    v("unrecoverable", r.unrecoverable);
    v("crash_points", r.results);
    v("failures", r.failures);
}

/** Multi-core campaign parameters. */
struct ConcCampaignOptions
{
    ConcApp app = ConcApp::MsQueue;
    std::uint64_t seed = 1;

    /** Crash points sampled per configuration (0 = exhaustive). */
    std::size_t pointsPerConfig = 200;

    unsigned cores = 2;
    int opsPerCore = 8;
    std::uint64_t workloadSeed = 42;

    /** NVM media write latency multiplier (see ConcCheckOptions). */
    std::uint32_t mediaFactor = 8;

    /** Transient accept-fault rate pressured during simulation. */
    double acceptFaultRate = 0.02;

    std::vector<Config> configs{kAllConfigs.begin(),
                                kAllConfigs.end()};

    /** Configurations run in parallel (see CampaignOptions::jobs). */
    unsigned jobs = 1;

    /** Process isolation (same contract as CampaignOptions). */
    exp::Isolation isolation;
};

/** The campaign's identity: isolation and job count never change it. */
void
visitFields(auto &v, FieldsOf<ConcCampaignOptions> auto &o)
{
    v("app", o.app, concAppName);
    v("seed", o.seed);
    v("points_per_config", o.pointsPerConfig);
    v("cores", o.cores);
    v("ops_per_core", o.opsPerCore);
    v("workload_seed", o.workloadSeed);
    v("media_factor", o.mediaFactor);
    v("accept_fault_rate", o.acceptFaultRate);
    v("configs", o.configs, configName);
}

/** The whole multi-core campaign's outcome. */
struct ConcCampaignReport
{
    ConcCampaignOptions options;
    std::vector<ConcCampaignConfigResult> configs;
    std::vector<QuarantinedConfig> quarantined;

    /** No safe configuration produced an unrecoverable image. */
    bool safeConfigsClean() const;

    /** safeConfigsClean and nothing quarantined. */
    bool ok() const;

    /** Multi-line human-readable summary with failures. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<ConcCampaignReport> auto &r)
{
    v("conc_campaign", r.options);
    v("configs", r.configs);
    v("quarantined", r.quarantined);
    v.derived("safe_configs_clean", r.safeConfigsClean());
    v.derived("ok", r.ok());
}

/** Run the multi-core campaign across configurations. */
ConcCampaignReport runConcCampaign(const ConcCampaignOptions &options);

/** @name Worker wire format / journal payloads. */
/// @{
std::string
serializeConcCampaignResult(const ConcCampaignConfigResult &result);

std::optional<ConcCampaignConfigResult>
deserializeConcCampaignResult(const std::string &text);

std::uint64_t concCampaignSweepId(const ConcCampaignOptions &options);
/// @}

/** Deterministic JSON artifact (BENCH_conc_campaign.json). */
std::string concCampaignToJson(const ConcCampaignReport &report);

} // namespace ede

#endif // EDE_FAULT_CONC_CAMPAIGN_HH
