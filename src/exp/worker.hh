/**
 * @file
 * Process-isolated job execution for the experiment layer.
 *
 * A sweep cell that calls abort(), trips an ASan report, leaks until
 * the OOM killer fires, or hangs past the watchdog used to take the
 * whole campaign down with it, discarding every completed result.
 * runForked() gives each job the isolation of a real job system:
 * the job runs in a forked child bounded by a wall-clock timeout and
 * an address-space cap, serializes its result string back over a
 * pipe, and any failure is *classified* -- Crashed (signal or bad
 * exit), TimedOut, OutOfMemory, or SimFault (a structured SimError
 * raised as SimFaultError) -- together with the tail of the child's
 * stderr, instead of being fatal to the sweep.
 *
 * runWithRetry() layers the failure policy on top: transient classes
 * (Crashed / TimedOut / OutOfMemory may be machine-load artifacts)
 * are retried with exponential backoff and deterministic seeded
 * jitter; a job still failing after the attempt budget is returned as
 * a quarantinable failure record.  SimFault is never retried -- a
 * structured simulator abort is deterministic in the inputs.
 *
 * runIsolated() is the whole isolation contract of a sweep (DESIGN.md
 * §11), and the only code that forks sweep jobs: journal replay, the
 * retried worker, quarantine and the journal record, for the exp
 * runner, the crash-consistency sweeps and the fuzz campaign alike.
 *
 * The fork re-enters the in-process job closure directly (no exec, so
 * arbitrary plan points need no argv serialization); the child exits
 * only through _exit(), never running the parent's atexit chain.
 */

#ifndef EDE_EXP_WORKER_HH
#define EDE_EXP_WORKER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/fields.hh"

namespace ede {
namespace exp {

/** How an isolated job ended. */
enum class JobOutcome
{
    Ok,          ///< Payload delivered.
    Crashed,     ///< Killed by a signal or exited uncleanly.
    TimedOut,    ///< Exceeded the wall-clock budget; SIGKILLed.
    OutOfMemory, ///< Exceeded the address-space cap.
    SimFault,    ///< Structured SimError (SimFaultError) in the job.
};

const char *jobOutcomeName(JobOutcome outcome);

/**
 * @name Sanitizer builds, detected at compile time.
 *
 * ASan and TSan map their shadow memory up front, far beyond any
 * useful RLIMIT_AS, so a capped child would die before its job ran:
 * neither build applies WorkerLimits::memLimitBytes.  Only libasan's
 * allocator is unsafe to fork() from a threaded parent, so
 * runIsolated forks from one thread under ASan alone.
 */
/// @{
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kAsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kAsanBuild = true;
#else
inline constexpr bool kAsanBuild = false;
#endif
#else
inline constexpr bool kAsanBuild = false;
#endif

#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

/** True when this build ignores WorkerLimits::memLimitBytes. */
inline constexpr bool kMemLimitIgnored = kAsanBuild || kTsanBuild;
/// @}

/** Resource bounds for one isolated job. */
struct WorkerLimits
{
    /** Wall-clock budget in milliseconds; 0 = unbounded. */
    std::uint64_t timeoutMs = 0;

    /**
     * Child address-space cap (RLIMIT_AS) in bytes; 0 = unbounded.
     * Ignored under ASan and TSan builds (kMemLimitIgnored), whose
     * shadow mappings make RLIMIT_AS meaningless.
     */
    std::uint64_t memLimitBytes = 0;

    /** Bytes of the child's stderr tail kept in the failure record. */
    std::size_t stderrTailBytes = 4096;
};

/** Typed record of one failed (or quarantined) job. */
struct JobFailure
{
    JobOutcome outcome = JobOutcome::Crashed;
    int signal = 0;          ///< Terminating signal (0 = none).
    int exitCode = 0;        ///< Exit status when not signaled.
    unsigned attempts = 1;   ///< Executions including the failing one.
    std::string message;     ///< SimFault text / protocol detail.
    std::string stderrTail;  ///< Last bytes the child wrote to stderr.

    /** One-line `outcome(signal/exit, attempts): message` summary. */
    std::string describe() const;
};

void
visitFields(auto &v, FieldsOf<JobFailure> auto &f)
{
    v("outcome", f.outcome, jobOutcomeName);
    v("signal", f.signal);
    v("exit_code", f.exitCode);
    v("attempts", f.attempts);
    v("message", f.message);
    v("stderr_tail", f.stderrTail);
}

/** Result of one isolated execution. */
struct WorkerRun
{
    JobOutcome outcome = JobOutcome::Crashed;
    std::string payload;  ///< The job's return string when Ok.
    JobFailure failure;   ///< Meaningful when !ok().

    bool ok() const { return outcome == JobOutcome::Ok; }
};

/** Retry/backoff policy for transient failure classes. */
struct RetryPolicy
{
    unsigned maxAttempts = 3;          ///< Total executions per job.
    std::uint64_t backoffBaseMs = 50;  ///< First-retry delay.
    std::uint64_t backoffMaxMs = 2000; ///< Exponential-growth cap.
};

/**
 * True for failure classes worth retrying: Crashed, TimedOut and
 * OutOfMemory can all be artifacts of a loaded host.  SimFault is a
 * deterministic function of the job's inputs and never retried.
 */
bool outcomeIsTransient(JobOutcome outcome);

/**
 * Run @p job once in a forked child under @p limits.  The child's
 * return string comes back as the payload; any failure is classified
 * into a JobFailure with the child's stderr tail attached.
 */
WorkerRun runForked(const std::function<std::string()> &job,
                    const WorkerLimits &limits);

/**
 * runForked with the retry policy applied: transient failures are
 * re-executed up to @p retry.maxAttempts times with exponential
 * backoff and jitter drawn deterministically from @p jitterSeed, so
 * two runs of the same sweep sleep identically.  The returned
 * failure's `attempts` counts every execution.
 */
WorkerRun runWithRetry(const std::function<std::string()> &job,
                       const WorkerLimits &limits,
                       const RetryPolicy &retry,
                       std::uint64_t jitterSeed);

/** How a sweep isolates its jobs; never part of its identity. */
struct Isolation
{
    bool isolate = false;     ///< Fork one worker per job.
    WorkerLimits limits;      ///< Per-job bounds.
    RetryPolicy retry;        ///< Transient-failure retries.
    std::string journalPath;  ///< Empty = no journal; needs isolate.
    bool resume = false;      ///< Replay a compatible journal.

    /**
     * Test/chaos hook: the job with this label (a plan point's label,
     * a configuration's name, a fuzz program's index) calls abort()
     * inside its worker.  Empty disables it.
     */
    std::string chaosLabel;

    /** Fatal when a journal is requested without `isolate`. */
    void requireIsolatedJournal(const char *sweep) const;
};

/** One job of an isolated sweep. */
struct IsolatedJob
{
    std::string label;         ///< Names the job; chaosLabel matches it.
    std::uint64_t fingerprint; ///< Journal identity; seeds the jitter.
};

/** A sweep as runIsolated runs it. */
struct IsolatedSweep
{
    IsolatedSweep(const char *noun, const char *validation,
                  std::uint64_t sweepId)
        : noun(noun), validation(validation), sweepId(sweepId)
    {
    }

    const char *noun;        ///< Names a job in warnings: "cell".
    const char *validation;  ///< "worker payload failed <...> validation".
    std::uint64_t sweepId;   ///< The journal header's identity.
    std::vector<IsolatedJob> jobs;

    /** The worker: job i's wire payload. */
    std::function<std::string(std::size_t)> work;

    /** Take job i's payload (journal or worker); false if malformed. */
    std::function<bool(std::size_t, const std::string &, bool replayed)>
        accept;

    /** Optional: job i's payload when the parent holds it (a cache hit). */
    std::function<std::optional<std::string>(std::size_t)> local;
};

/**
 * Run every job of @p sweep under @p iso on @p threads threads (0 =
 * hardware concurrency; one in a sanitizer build).  Per job: replay a
 * compatible journal record (a replayed quarantine is final; a
 * payload `accept` refuses is re-run), else take the parent's `local`
 * payload, else run `work` in a forked worker under the retry policy.
 * What lands is journaled; a failure or a malformed payload is
 * quarantined with one warning.
 *
 * @return per job, its quarantine record, or nullopt.
 */
std::vector<std::optional<JobFailure>>
runIsolated(const IsolatedSweep &sweep, const Isolation &iso,
            unsigned threads);

} // namespace exp
} // namespace ede

#endif // EDE_EXP_WORKER_HH
