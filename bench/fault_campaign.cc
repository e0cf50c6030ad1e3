/**
 * @file
 * Fault-injection campaign driver.
 *
 * Sweeps crash points across every Table III configuration under the
 * NVM fault model (failed ADR drains, torn persists, transient accept
 * faults) and classifies each reconstructed image through the model
 * checkers' judges (undo-log recovery and the app oracle on one
 * core, the kernel oracles on N cores).
 * Everything -- crash-point choice, per-point fault plans, the
 * transient-fault schedule -- derives from the single --seed value,
 * so any printed failure tuple replays exactly.
 *
 * Usage:
 *   fault_campaign [--seed N] [--points N] [--app NAME]
 *                  [--txns N] [--ops N] [--fault-rate F] [--jobs N]
 *                  [--json PATH] [--isolate] [--timeout-ms T]
 *                  [--mem-limit-mb M] [--attempts N]
 *                  [--journal PATH] [--resume]
 *                  [--conc NAME] [--cores N] [--ops-per-core N]
 *                  [--workload-seed N] [--media-factor N]
 *
 *   --points 0 enumerates every persist-boundary crash point.
 *   --conc switches to the multi-core campaign: the named concurrent
 *   kernel (msqueue / rwlock / rcu) runs on --cores harts and crash
 *   points stratify toward cycles where a *remote* core still has
 *   accepted-but-undrained media writes.  The single-app flags
 *   (--app/--txns/--ops) do not apply; the shared flags keep their
 *   meaning.
 *   --jobs runs up to N configurations at once, in process or
 *   isolated; each simulates and classifies its crash points
 *   serially (0 = hardware concurrency).  Results are bit-identical
 *   to --jobs 1 because every scenario derives only from its
 *   configuration's recorded persist events.  Each configuration in
 *   flight holds its run and persist-order graph, so peak memory
 *   grows with N.
 *   --isolate forks one worker per configuration so a crash, hang or
 *   OOM quarantines that configuration instead of killing the
 *   campaign; --journal + --resume make an interrupted campaign
 *   resumable with byte-identical final output.
 *
 * Exit status is non-zero when a safe configuration (B, IQ, WB)
 * produced an unrecoverable crash point -- Table III broken -- or
 * when any configuration was quarantined, so the campaign can gate
 * CI.  Both campaigns report a structured simulator abort in process
 * (SimFaultError) the same way: one line on stderr, exit 2.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hh"
#include "exp/sink.hh"
#include "fault/campaign.hh"
#include "fault/conc_campaign.hh"
#include "sim/session.hh"

using namespace ede;
using namespace ede::bench;

int
main(int argc, char **argv)
{
    CampaignOptions options;
    ConcCampaignOptions conc;
    bool useConc = false;
    std::string jsonPath;
    Cli cli("fault_campaign");
    cli.value("--seed", "N", "campaign RNG seed",
              [&](const std::string &v) { options.seed = toU64(v); })
        .value("--points", "N",
               "crash points per configuration (0 = every "
               "persist boundary)",
               [&](const std::string &v) {
                   options.pointsPerConfig = toU64(v);
               })
        .value("--app", "NAME", "workload application",
               [&](const std::string &v) {
                   options.app = fromName(kAllApps, appName, v, "app");
               })
        .value("--txns", "N", "transactions per run",
               [&](const std::string &v) {
                   options.spec.txns = toU64(v);
               })
        .value("--ops", "N", "operations per transaction",
               [&](const std::string &v) {
                   options.spec.opsPerTxn = toU64(v);
               })
        .value("--fault-rate", "F",
               "transient accept-fault probability",
               [&](const std::string &v) {
                   options.acceptFaultRate = toF64(v);
               })
        .value("--jobs", "N",
               "parallel configurations (0 = hardware "
               "concurrency); results are bit-identical to --jobs 1",
               [&](const std::string &v) {
                   options.jobs = toUnsigned(v);
               })
        .value("--json", "PATH",
               "write the deterministic campaign JSON artifact",
               [&](const std::string &v) { jsonPath = v; })
        .value("--chaos-crash-config", "NAME",
               "chaos hook: this configuration's isolated worker "
               "calls abort() (CI/testing only)",
               [&](const std::string &v) {
                   options.isolation.chaosLabel = v;
               })
        .value("--conc", "NAME",
               "concurrent kernel (msqueue / rwlock / rcu): run the "
               "multi-core campaign instead of the single-app one",
               [&](const std::string &v) {
                   useConc = true;
                   conc.app = fromName(kAllConcApps, concAppName, v,
                                       "concurrent kernel");
               })
        .value("--cores", "N", "cores for --conc (default 2)",
               [&](const std::string &v) {
                   conc.cores = toUnsigned(v);
               })
        .value("--ops-per-core", "N",
               "operations per core for --conc (default 8)",
               [&](const std::string &v) {
                   conc.opsPerCore = static_cast<int>(toU64(v));
               })
        .value("--workload-seed", "N",
               "global-interleaving seed for --conc (default 42)",
               [&](const std::string &v) {
                   conc.workloadSeed = toU64(v);
               })
        .value("--media-factor", "N",
               "NVM media write latency multiplier for --conc "
               "(default 8: the slow-media crash window)",
               [&](const std::string &v) {
                   conc.mediaFactor = toUnsigned(v);
               });
    addIsolationFlags(cli, options.isolation);
    cli.parse(argc, argv);

    bool ok = false;
    bool unsafeUnexposed = false;
    std::string json;
    try {
        if (useConc) {
            // Shared flags were parsed into the single-app options;
            // forward them so both campaigns speak one CLI dialect.
            conc.seed = options.seed;
            conc.pointsPerConfig = options.pointsPerConfig;
            conc.acceptFaultRate = options.acceptFaultRate;
            conc.jobs = options.jobs;
            conc.isolation = options.isolation;

            const ConcCampaignReport report = runConcCampaign(conc);
            std::fputs(report.describe().c_str(), stdout);
            ok = report.ok();
            if (!jsonPath.empty())
                json = concCampaignToJson(report);
        } else {
            const CampaignReport report = runCampaign(options);
            std::fputs(report.describe().c_str(), stdout);
            ok = report.ok();
            if (!jsonPath.empty())
                json = campaignToJson(report);
            unsafeUnexposed = report.quarantined.empty();
            for (const CampaignConfigResult &c : report.configs) {
                if (c.config == Config::U && c.unrecoverable > 0)
                    unsafeUnexposed = false;
            }
        }
    } catch (const SimFaultError &e) {
        return bench::reportUsageFault("fault_campaign", e);
    }

    if (!jsonPath.empty()) {
        exp::writeArtifact(jsonPath, json);
        std::printf("[campaign] wrote %s\n", jsonPath.c_str());
    }
    if (unsafeUnexposed) {
        std::printf("note: U produced no unrecoverable point at this "
                    "seed/scale; widen --points or --txns\n");
    }
    return ok ? 0 : 1;
}
