#include "fault/sweep.hh"

#include <cstdlib>

#include "common/random.hh"
#include "exp/fingerprint.hh"
#include "exp/journal.hh"
#include "exp/scheduler.hh"

namespace ede {

std::optional<Config>
configFromName(const std::string &name)
{
    for (Config c : kAllConfigs) {
        if (configName(c) == name)
            return c;
    }
    return std::nullopt;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
    return rng.next();
}

std::uint64_t
configSalt(Config cfg)
{
    return static_cast<std::uint64_t>(cfg) + 1;
}

std::vector<std::optional<QuarantinedConfig>>
runIsolatedConfigs(
    const SweepKind &kind, std::uint64_t sweepId,
    const SweepControl &ctl,
    const std::function<std::string(Config)> &work,
    const std::function<bool(std::size_t, const std::string &)> &accept)
{
    if (!exp::processIsolationSupported())
        ede_fatal("process isolation is not supported on this platform");

    const std::size_t n = ctl.configs.size();
    std::optional<exp::SweepJournal> journal;
    if (!ctl.journalPath.empty())
        journal.emplace(ctl.journalPath, sweepId, n, ctl.resume);

    // The worker identity of each (sweep, config) pair.
    const std::string prefix = kind.keyPrefix;
    std::vector<std::uint64_t> fingerprints;
    for (Config cfg : ctl.configs) {
        exp::FingerprintHasher h;
        h.field(prefix + ".sweep", sweepId);
        h.field(prefix + ".config", configName(cfg));
        fingerprints.push_back(h.value());
    }

    std::vector<std::optional<QuarantinedConfig>> poisoned(n);
    auto quarantine = [&](std::size_t i, std::uint64_t fp,
                          exp::JobFailure failure) {
        const Config cfg = ctl.configs[i];
        ede_warn("config '", configName(cfg), "' quarantined: ",
                 failure.describe());
        if (journal)
            journal->recordQuarantine(i, fp, failure);
        poisoned[i] = QuarantinedConfig{cfg, std::move(failure)};
    };

    auto runConfig = [&](std::size_t i) {
        const Config cfg = ctl.configs[i];
        const std::uint64_t fp = fingerprints[i];

        if (journal && ctl.resume) {
            const auto it = journal->replayed().find(i);
            if (it != journal->replayed().end() &&
                it->second.fingerprint == fp) {
                const exp::JournalEntry &e = it->second;
                if (!e.ok) {
                    poisoned[i] = QuarantinedConfig{cfg, e.failure};
                    return;
                }
                if (accept(i, e.payload))
                    return;
                // Corrupt payload: fall through and re-run.
            }
        }

        const exp::WorkerRun run = exp::runWithRetry(
            [&]() -> std::string {
                if (configName(cfg) == ctl.chaosCrashConfig)
                    std::abort();
                return work(cfg);
            },
            ctl.limits, ctl.retry, /*jitterSeed=*/fp);

        if (!run.ok()) {
            quarantine(i, fp, run.failure);
            return;
        }
        if (!accept(i, run.payload)) {
            exp::JobFailure protocol;
            protocol.outcome = exp::JobOutcome::Crashed;
            protocol.attempts = run.failure.attempts;
            protocol.message = std::string("worker payload failed ") +
                               kind.validation + " validation";
            quarantine(i, fp, std::move(protocol));
            return;
        }
        if (journal)
            journal->recordOk(i, fp, run.payload);
    };

    const exp::Scheduler sched(exp::forkSafeAllocator() ? ctl.jobs : 1);
    sched.run(n, runConfig, exp::FailureMode::KeepGoing);
    return poisoned;
}

} // namespace ede
