/**
 * @file
 * Crash-consistency model-checker driver.
 *
 * Where fault_campaign samples crash cycles, this driver enumerates
 * the *entire* durable-set lattice of a (deliberately small) run:
 * every downward-closed subset of the persist-ordering partial order
 * that a power failure could leave durable, plus torn-persist
 * variants at each set's frontier.  Every unique image goes through
 * undo-log recovery and the application's invariant oracle; a
 * violation is shrunk to a minimal durable-set counterexample.
 *
 * Usage:
 *   model_check [--app NAME] [--seed N] [--txns N] [--ops N]
 *               [--array-len N] [--config NAME]... [--drain-lines N]
 *               [--max-states N] [--budget-ms T] [--no-torn]
 *               [--seed-bug] [--jobs N] [--json PATH]
 *               [--isolate] [--timeout-ms T] [--mem-limit-mb M]
 *               [--attempts N] [--journal PATH] [--resume]
 *               [--conc NAME] [--cores N] [--ops-per-core N]
 *               [--workload-seed N] [--media-factor N]
 *
 *   --seed-bug deletes the EDK operand ordering the first
 *   transactional update behind its undo-log entry; the run then
 *   passes only if the checker DETECTS the resulting violation in
 *   every EDE configuration (checker-sensitivity gate).
 *   --max-states is the deterministic search bound; --budget-ms is a
 *   wall-clock bound and NONDETERMINISTIC in which states it covers.
 *
 *   --conc switches to the cross-core checker: the named concurrent
 *   kernel (msqueue / rwlock / rcu) runs on --cores harts, the joint
 *   persist-order lattice is enumerated, and every image is judged by
 *   the kernels' recovery oracles.  --seed-bug then retargets a
 *   cross-core WAIT (seedMissingCrossCoreWaitBug) instead of an EDK
 *   operand.  The single-app flags (--app/--txns/--ops/--array-len/
 *   --drain-lines) do not apply; the shared flags (--config,
 *   --max-states, --budget-ms, --no-torn, --jobs, --json, isolation)
 *   keep their meaning.
 *
 * Exit status is non-zero when an intact configuration has a
 * violating durable state, a seeded bug goes undetected, or a
 * configuration was quarantined.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli.hh"
#include "exp/sink.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"
#include "sim/session.hh"

using namespace ede;
using namespace ede::bench;

int
main(int argc, char **argv)
{
    ModelCheckOptions options;
    ConcCheckOptions conc;
    bool useConc = false;
    std::string jsonPath;
    std::vector<Config> configs;
    Cli cli("model_check");
    cli.value("--app", "NAME", "workload application",
              [&](const std::string &v) {
                  options.app = fromName(kAllApps, appName, v, "app");
              })
        .value("--seed", "N", "model-check RNG seed (torn masks)",
               [&](const std::string &v) { options.seed = toU64(v); })
        .value("--txns", "N", "transactions per run",
               [&](const std::string &v) {
                   options.spec.txns = toU64(v);
               })
        .value("--ops", "N", "operations per transaction",
               [&](const std::string &v) {
                   options.spec.opsPerTxn = toU64(v);
               })
        .value("--array-len", "N",
               "kernel array length (update/swap workloads)",
               [&](const std::string &v) {
                   options.appParams.arrayLen = toU64(v);
               })
        .value("--config", "NAME",
               "configuration to check (repeatable; default B IQ WB)",
               [&](const std::string &v) {
                   const std::optional<Config> cfg = configFromName(v);
                   if (!cfg)
                       throw CliError{"unknown config '" + v + "'"};
                   configs.push_back(*cfg);
               })
        .value("--drain-lines", "N",
               "ADR drain budget in 256 B media lines "
               "(default: unlimited, a working ADR)",
               [&](const std::string &v) {
                   options.drainLines = toUnsigned(v);
               })
        .value("--max-states", "N",
               "deterministic bound on enumerated durable sets "
               "(0 = unlimited)",
               [&](const std::string &v) {
                   options.maxStates = toU64(v);
               })
        .value("--budget-ms", "T",
               "wall-clock search budget per config "
               "(0 = unlimited; nondeterministic coverage)",
               [&](const std::string &v) {
                   options.budgetMs = toU64(v);
               })
        .toggle("--no-torn", "skip torn-persist frontier variants",
                [&]() { options.torn = false; })
        .toggle("--seed-bug",
                "delete a load-bearing EDK and require the checker "
                "to find the violation",
                [&]() { options.seedBug = true; })
        .value("--jobs", "N",
               "parallel configurations (0 = hardware concurrency)",
               [&](const std::string &v) {
                   options.jobs = toUnsigned(v);
               })
        .value("--json", "PATH",
               "write the deterministic model-check JSON artifact",
               [&](const std::string &v) { jsonPath = v; })
        .value("--chaos-crash-config", "NAME",
               "chaos hook: this configuration's isolated worker "
               "calls abort() (CI/testing only)",
               [&](const std::string &v) {
                   options.isolation.chaosLabel = v;
               })
        .value("--conc", "NAME",
               "concurrent kernel (msqueue / rwlock / rcu): run the "
               "cross-core checker instead of the single-app one",
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
               "operations per core for --conc (default 4)",
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

    if (!configs.empty())
        options.configs = configs;

    bool ok = false;
    std::string json;
    try {
    if (useConc) {
        // Shared flags were parsed into the single-app options;
        // forward them so both checkers speak one CLI dialect.
        conc.seed = options.seed;
        if (!configs.empty())
            conc.configs = configs;
        conc.drainLines = options.drainLines;
        conc.maxStates = options.maxStates;
        conc.budgetMs = options.budgetMs;
        conc.torn = options.torn;
        conc.seedBug = options.seedBug;
        conc.jobs = options.jobs;
        conc.isolation = options.isolation;

        const ConcCheckReport report = runConcCheck(conc);
        std::fputs(report.describe().c_str(), stdout);
        ok = report.ok();
        if (!jsonPath.empty())
            json = concCheckToJson(report);
    } else {
        const ModelCheckReport report = runModelCheck(options);
        std::fputs(report.describe().c_str(), stdout);
        ok = report.ok();
        if (!jsonPath.empty())
            json = modelCheckToJson(report);
    }
    } catch (const SimFaultError &e) {
        return bench::reportUsageFault("model_check", e);
    }

    if (!jsonPath.empty()) {
        exp::writeArtifact(jsonPath, json);
        std::printf("[model-check] wrote %s\n", jsonPath.c_str());
    }
    return ok ? 0 : 1;
}
