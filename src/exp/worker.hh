/**
 * @file
 * Process-isolated job execution for the experiment layer.
 *
 * A sweep cell that calls abort(), trips an ASan report, leaks until
 * the OOM killer fires, or hangs past the watchdog used to take the
 * whole campaign down with it, discarding every completed result.
 * runInProcess() gives each job the isolation of a real job system:
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
 * The fork re-enters the in-process job closure directly (no exec, so
 * arbitrary plan points need no argv serialization); the child exits
 * only through _exit(), never running the parent's atexit chain.
 */

#ifndef EDE_EXP_WORKER_HH
#define EDE_EXP_WORKER_HH

#include <cstdint>
#include <functional>
#include <string>

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

/** Resource bounds for one isolated job. */
struct WorkerLimits
{
    /** Wall-clock budget in milliseconds; 0 = unbounded. */
    std::uint64_t timeoutMs = 0;

    /**
     * Child address-space cap (RLIMIT_AS) in bytes; 0 = unbounded.
     * Ignored under ASan/UBSan builds, whose shadow mappings make
     * RLIMIT_AS meaningless.
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

/** True when this platform supports process isolation (POSIX fork). */
bool processIsolationSupported();

/**
 * False in a sanitizer build.  Its allocator takes no locks around
 * fork(), so a worker forked while another thread is inside the
 * allocator can block forever on a lock no thread will release; such
 * a build forks workers from one thread at a time.
 */
bool forkSafeAllocator();

/**
 * Run @p job once in a forked child under @p limits.  The child's
 * return string comes back as the payload; any failure is classified
 * into a JobFailure with the child's stderr tail attached.
 */
WorkerRun runInProcess(const std::function<std::string()> &job,
                       const WorkerLimits &limits);

/**
 * runInProcess with the retry policy applied: transient failures are
 * re-executed up to @p retry.maxAttempts times with exponential
 * backoff and jitter drawn deterministically from @p jitterSeed, so
 * two runs of the same sweep sleep identically.  The returned
 * failure's `attempts` counts every execution.
 */
WorkerRun runWithRetry(const std::function<std::string()> &job,
                       const WorkerLimits &limits,
                       const RetryPolicy &retry,
                       std::uint64_t jitterSeed);

} // namespace exp
} // namespace ede

#endif // EDE_EXP_WORKER_HH
