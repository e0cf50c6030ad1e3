/**
 * @file
 * The crash-injection campaign.
 *
 * One campaign run takes a workload and a root seed and, for every
 * Table III configuration:
 *
 *  1. simulates the workload once with the plan's transient
 *     accept-fault injector installed on the NVM device;
 *  2. enumerates candidate crash cycles at persist boundaries (each
 *     persist-accept cycle and the cycle after it), stratified across
 *     the inter-commit windows so every transaction's commit protocol
 *     is probed, not just the cycles where persists cluster;
 *  3. reconstructs the adversarial crash image for each point under a
 *     per-point FaultPlan (ADR drain budget + torn final persist),
 *     runs undo-log recovery, and classifies the outcome;
 *  4. for safe-configuration failures, shrinks the fault plan to the
 *     weakest one that still fails and records a minimal
 *     {seed, config, crashCycle, faultPlan} reproducer.
 *
 * The paper's Table III safety claim becomes the campaign's
 * acceptance check: B/IQ/WB must classify every point as Recovered or
 * TornLogDetected; U must produce at least one Unrecoverable point.
 */

#ifndef EDE_FAULT_CAMPAIGN_HH
#define EDE_FAULT_CAMPAIGN_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "apps/driver.hh"
#include "exp/worker.hh"
#include "fault/fault_plan.hh"
#include "fault/sweep.hh"
#include "sim/config.hh"

namespace ede {

/** Classification of one crash point. */
enum class CrashOutcome
{
    Recovered,       ///< Image recovered to a transaction boundary.
    TornLogDetected, ///< Recovered; torn log entries were discarded.
    Unrecoverable,   ///< No transaction boundary matches the image.
};

const char *crashOutcomeName(CrashOutcome outcome);

/** A minimal failing tuple, printable and replayable. */
struct Reproducer
{
    std::uint64_t seed = 0;     ///< Campaign root seed.
    Config config = Config::B;
    Cycle crashCycle = 0;
    FaultPlan plan;

    /** One-line `{seed, config, crashCycle, faultPlan}` tuple. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<Reproducer> auto &r)
{
    v("seed", r.seed);
    v("config", r.config, configName);
    v("crash_cycle", r.crashCycle);
    v("plan", r.plan);
}

/** One classified crash point. */
struct CrashPointResult
{
    Cycle crashCycle = 0;
    CrashOutcome outcome = CrashOutcome::Recovered;
    FaultPlan plan;
    std::uint64_t entriesTorn = 0;  ///< Discarded by recovery.
};

void
visitFields(auto &v, FieldsOf<CrashPointResult> auto &r)
{
    v("cycle", r.crashCycle);
    v("outcome", r.outcome, crashOutcomeName);
    v("entries_torn", r.entriesTorn);
    v("plan", r.plan);
}

/** Per-configuration tallies. */
struct CampaignConfigResult
{
    Config config = Config::B;
    Cycle cycles = 0;                  ///< Simulated run length.
    std::uint64_t transientRejects = 0;
    std::size_t points = 0;
    std::size_t recovered = 0;
    std::size_t tornDetected = 0;
    std::size_t unrecoverable = 0;
    std::vector<CrashPointResult> results;
    std::vector<Reproducer> failures;  ///< Safe-config only, shrunk.
};

void
visitFields(auto &v, FieldsOf<CampaignConfigResult> auto &r)
{
    v("config", r.config, configName);
    v("cycles", r.cycles);
    v("transient_rejects", r.transientRejects);
    v("points", r.points);
    v("recovered", r.recovered);
    v("torn_detected", r.tornDetected);
    v("unrecoverable", r.unrecoverable);
    v("crash_points", r.results);
    v("failures", r.failures);
}

/** Campaign parameters; everything flows from one root seed. */
struct CampaignOptions
{
    AppId app = AppId::Update;
    std::uint64_t seed = 1;
    std::size_t pointsPerConfig = 200;  ///< 0 = exhaustive.
    RunSpec spec{/*txns=*/6, /*opsPerTxn=*/8, /*seed=*/42};
    double acceptFaultRate = 0.02;      ///< Transient-fault pressure.
    std::vector<Config> configs{kAllConfigs.begin(), kAllConfigs.end()};

    /**
     * Parallel jobs for the per-config simulations and the
     * crash-point classifications (both dispatched through the
     * experiment scheduler; every scenario derives only from the
     * recorded persist events, so results are bit-identical for any
     * job count).  0 = hardware concurrency; default 1 = serial.
     */
    unsigned jobs = 1;

    /**
     * Fork one worker per configuration: the child simulates and
     * classifies the whole config serially and ships the serialized
     * CampaignConfigResult back; a crash/hang/OOM quarantines that
     * configuration instead of killing the campaign.  Results are
     * bit-identical to the in-process path (the serialization is
     * exact).
     */
    bool isolate = false;

    exp::WorkerLimits limits;  ///< Per-config bounds (isolate only).
    exp::RetryPolicy retry;    ///< Transient-failure retries.

    /**
     * Append-only journal of per-config outcomes; empty disables it.
     * With `resume`, configs already journaled by a compatible run
     * are replayed instead of re-simulated.  Requires `isolate`.
     */
    std::string journalPath;
    bool resume = false;

    /**
     * Test/chaos hook: the configuration with this name calls
     * abort() inside its isolated worker -- how tests and the CI
     * chaos job provoke a deterministic quarantine.
     */
    std::string chaosCrashConfig;
};

/** The campaign's identity: isolation and job count never change it. */
void
visitFields(auto &v, FieldsOf<CampaignOptions> auto &o)
{
    v("app", o.app, appName);
    v("seed", o.seed);
    v("points_per_config", o.pointsPerConfig);
    v("spec", o.spec);
    v("accept_fault_rate", o.acceptFaultRate);
    v("configs", o.configs, configName);
}

/** The whole campaign's outcome. */
struct CampaignReport
{
    CampaignOptions options;
    std::vector<CampaignConfigResult> configs;
    std::vector<QuarantinedConfig> quarantined; ///< Isolated runs only.

    /** Table III holds: no safe config produced an unrecoverable. */
    bool safeConfigsClean() const;

    /** Campaign acceptance: Table III holds and nothing quarantined. */
    bool ok() const { return safeConfigsClean() && quarantined.empty(); }

    /** Multi-line human-readable summary with reproducer tuples. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<CampaignReport> auto &r)
{
    v("campaign", r.options);
    v("configs", r.configs);
    v("quarantined", r.quarantined);
    v.derived("safe_configs_clean", r.safeConfigsClean());
}

/** Run the campaign. */
CampaignReport runCampaign(const CampaignOptions &options);

/** @name Campaign worker wire format / journal payloads. */
/// @{

/** Exact text serialization of one config's classified results. */
std::string serializeConfigResult(const CampaignConfigResult &result);

/** Inverse of serializeConfigResult; nullopt on any malformation. */
std::optional<CampaignConfigResult>
deserializeConfigResult(const std::string &text);

/** Journal identity: hash of every input that shapes the campaign. */
std::uint64_t campaignSweepId(const CampaignOptions &options);
/// @}

/**
 * Deterministic JSON artifact for the campaign: options, per-config
 * tallies and crash points, shrunk reproducers, and quarantined
 * configurations.  Contains no host-side measurements, so an
 * interrupted-then-resumed campaign serializes byte-identically to an
 * uninterrupted one (the CI chaos gate relies on this).
 */
std::string campaignToJson(const CampaignReport &report);

} // namespace ede

#endif // EDE_FAULT_CAMPAIGN_HH
