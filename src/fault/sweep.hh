/**
 * @file
 * The per-configuration sweep every crash-consistency driver runs.
 *
 * The fault campaign, the model checker and their N-core forms each
 * run one self-contained job per Table III configuration under one
 * isolation contract (DESIGN.md §11): with `isolate`, every
 * configuration runs in a forked worker that ships its exact wire
 * payload back; an optional journal records each payload as it lands,
 * so an interrupted sweep resumes byte-identically; and a
 * configuration whose worker keeps failing is quarantined instead of
 * ending the sweep.  runConfigSweep implements that contract once --
 * a driver supplies its name, payload decoder, worker job and
 * in-process path.
 *
 * The helpers the drivers share live here too.
 */

#ifndef EDE_FAULT_SWEEP_HH
#define EDE_FAULT_SWEEP_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "exp/worker.hh"
#include "sim/config.hh"

namespace ede {

/** A configuration whose isolated worker never produced a result. */
struct QuarantinedConfig
{
    Config config = Config::B;
    exp::JobFailure failure;
};

void
visitFields(auto &v, FieldsOf<QuarantinedConfig> auto &q)
{
    v("config", q.config, configName);
    visitFields(v, q.failure);
}

/** Reverse of configName; nullopt for an unknown name. */
std::optional<Config> configFromName(const std::string &name);

/** Decorrelated 64-bit stream: one value per (seed, salt) pair. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** The per-configuration salt of every mixSeed stream. */
std::uint64_t configSalt(Config cfg);

/** How one driver names itself inside the shared sweep. */
struct SweepKind
{
    const char *name;        ///< "the <name> journal requires ...".
    const char *validation;  ///< "worker payload failed <...> validation".
    const char *keyPrefix;   ///< Fingerprint keys <keyPrefix>.sweep/.config.
};

/** The isolation fields every driver's options carry. */
struct SweepControl
{
    std::vector<Config> configs;
    unsigned jobs = 1;
    exp::WorkerLimits limits;
    exp::RetryPolicy retry;
    std::string journalPath;  ///< Empty disables the journal.
    bool resume = false;
    std::string chaosCrashConfig;  ///< Worker abort() hook (tests/CI).
};

/**
 * Run each of @p ctl.configs in a forked worker: replay a compatible
 * journal entry when resuming, else run @p work (the child: simulate
 * and check one configuration serially, return its wire payload)
 * under the retry policy, journal what lands and quarantine what
 * keeps failing.  @p accept decodes a replayed or fresh payload into
 * the caller's slot i and returns false when it is malformed or names
 * another configuration.
 *
 * @return per-configuration quarantine records; nullopt where
 *         @p accept took a payload.
 */
std::vector<std::optional<QuarantinedConfig>>
runIsolatedConfigs(
    const SweepKind &kind, std::uint64_t sweepId,
    const SweepControl &ctl,
    const std::function<std::string(Config)> &work,
    const std::function<bool(std::size_t, const std::string &)> &accept);

/** The per-configuration result type of a driver's report. */
template <class Report>
using SweepResult = typename decltype(Report::configs)::value_type;

/**
 * One driver's whole sweep.  A journal without isolation is fatal;
 * without isolation @p inProcess produces every configuration's
 * result, otherwise runIsolatedConfigs does and @p decode turns each
 * payload back into a result.  The report lists the results, then
 * the quarantined configurations, each in configuration order.
 */
template <class Report>
Report
runConfigSweep(
    const SweepKind &kind, const decltype(Report::options) &options,
    std::uint64_t sweepId,
    std::optional<SweepResult<Report>> (*decode)(const std::string &),
    const std::function<std::string(Config)> &work,
    const std::function<std::vector<SweepResult<Report>>()> &inProcess)
{
    using Result = SweepResult<Report>;
    if (!options.journalPath.empty() && !options.isolate) {
        ede_fatal("the ", kind.name,
                  " journal requires process isolation (--isolate)");
    }
    Report report;
    report.options = options;
    if (!options.isolate) {
        report.configs = inProcess();
        return report;
    }

    std::vector<std::optional<Result>> slots(options.configs.size());
    std::vector<std::optional<QuarantinedConfig>> poisoned =
        runIsolatedConfigs(
            kind, sweepId,
            {options.configs, options.jobs, options.limits,
             options.retry, options.journalPath, options.resume,
             options.chaosCrashConfig},
            work, [&](std::size_t i, const std::string &payload) {
                std::optional<Result> r = decode(payload);
                if (!r || r->config != options.configs[i])
                    return false;
                slots[i] = std::move(r);
                return true;
            });
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i])
            report.configs.push_back(std::move(*slots[i]));
        else if (poisoned[i])
            report.quarantined.push_back(std::move(*poisoned[i]));
    }
    return report;
}

} // namespace ede

#endif // EDE_FAULT_SWEEP_HH
