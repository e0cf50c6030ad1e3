/**
 * @file
 * The per-configuration sweep every crash-consistency driver runs.
 *
 * The fault campaign, the model checker and their N-core forms each
 * run one self-contained job per Table III configuration under the
 * isolation contract of exp::runIsolated (DESIGN.md §11): with
 * `isolate`, every configuration runs in a forked worker that ships
 * its exact wire payload back; an optional journal records each
 * payload as it lands, so an interrupted sweep resumes
 * byte-identically; and a configuration whose worker keeps failing is
 * quarantined instead of ending the sweep.  runConfigSweep maps each
 * campaign and checker onto it; each supplies only its name, payload
 * decoder, worker job and in-process path.
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

/**
 * The journal identity of configuration @p cfg's job in sweep
 * @p sweepId: the fingerprint keys <keyPrefix>.sweep and .config.
 */
std::uint64_t configJobFingerprint(const char *keyPrefix,
                                   std::uint64_t sweepId, Config cfg);

/** The per-configuration result type of a driver's report. */
template <class Report>
using SweepResult = typename decltype(Report::configs)::value_type;

/**
 * One driver's whole sweep.  A journal without isolation is fatal;
 * without isolation @p inProcess produces every configuration's
 * result, otherwise exp::runIsolated runs @p work per configuration
 * and @p decode turns each payload back into a result.  The report
 * lists the results, then the quarantined configurations, each in
 * configuration order.
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
    const exp::Isolation &iso = options.isolation;
    iso.requireIsolatedJournal(kind.name);
    Report report;
    report.options = options;
    if (!iso.isolate) {
        report.configs = inProcess();
        return report;
    }

    const std::vector<Config> &configs = options.configs;
    std::vector<std::optional<Result>> slots(configs.size());
    exp::IsolatedSweep sweep("config", kind.validation, sweepId);
    for (Config cfg : configs) {
        sweep.jobs.push_back(
            {std::string(configName(cfg)),
             configJobFingerprint(kind.keyPrefix, sweepId, cfg)});
    }
    sweep.work = [&](std::size_t i) { return work(configs[i]); };
    sweep.accept = [&](std::size_t i, const std::string &payload, bool) {
        std::optional<Result> r = decode(payload);
        if (!r || r->config != configs[i])
            return false;
        slots[i] = std::move(r);
        return true;
    };
    std::vector<std::optional<exp::JobFailure>> failures =
        exp::runIsolated(sweep, iso, options.jobs);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i])
            report.configs.push_back(std::move(*slots[i]));
        else if (failures[i])
            report.quarantined.push_back(
                {configs[i], std::move(*failures[i])});
    }
    return report;
}

} // namespace ede

#endif // EDE_FAULT_SWEEP_HH
