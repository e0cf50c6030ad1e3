#include "exp/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "exp/journal.hh"
#include "exp/scheduler.hh"
#include "sim/session.hh"

namespace ede {
namespace exp {

namespace {

/**
 * Child exit codes of the worker protocol.  The payload channel
 * carries a one-byte tag ('P' payload, 'F' SimFault text, 'E' escaped
 * std::exception text) followed by the content; everything else is
 * classified from the wait status.
 */
constexpr int kOomExitCode = 77;      ///< std::bad_alloc in the job.
constexpr int kProtocolExitCode = 78; ///< Child-side plumbing failed.

constexpr char kTagPayload = 'P';
constexpr char kTagSimFault = 'F';
constexpr char kTagException = 'E';

void
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;  // Parent went away; nothing left to report to.
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

/** Everything the child does after fork(); never returns. */
[[noreturn]] void
childMain(const std::function<std::string()> &job,
          const WorkerLimits &limits, int payloadFd, int stderrFd)
{
    // The job's stderr (warnings, sanitizer reports, abort messages)
    // flows to the parent's capture pipe.
    ::dup2(stderrFd, STDERR_FILENO);
    ::close(stderrFd);

    if (limits.memLimitBytes && !kMemLimitIgnored) {
        struct rlimit rl;
        rl.rlim_cur = limits.memLimitBytes;
        rl.rlim_max = limits.memLimitBytes;
        ::setrlimit(RLIMIT_AS, &rl);
    }

    char tag = kTagPayload;
    std::string content;
    try {
        content = job();
    } catch (const SimFaultError &e) {
        tag = kTagSimFault;
        content = e.what();
    } catch (const std::bad_alloc &) {
        ::_exit(kOomExitCode);
    } catch (const std::exception &e) {
        tag = kTagException;
        content = e.what();
    } catch (...) {
        tag = kTagException;
        content = "unknown exception";
    }
    writeAll(payloadFd, &tag, 1);
    writeAll(payloadFd, content.data(), content.size());
    ::close(payloadFd);
    ::_exit(0);
}

/** Append @p fd's readable bytes to @p out; false once fd hit EOF. */
bool
drainFd(int fd, std::string &out)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        return false;  // EOF (or unrecoverable error): done.
    }
}

void
setNonBlocking(int fd)
{
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

std::string
tailOf(const std::string &text, std::size_t keep)
{
    if (text.size() <= keep)
        return text;
    return text.substr(text.size() - keep);
}

} // namespace

const char *
jobOutcomeName(JobOutcome outcome)
{
    switch (outcome) {
      case JobOutcome::Ok:
        return "ok";
      case JobOutcome::Crashed:
        return "crashed";
      case JobOutcome::TimedOut:
        return "timed-out";
      case JobOutcome::OutOfMemory:
        return "out-of-memory";
      case JobOutcome::SimFault:
        return "sim-fault";
    }
    return "unknown";
}

bool
outcomeIsTransient(JobOutcome outcome)
{
    return outcome == JobOutcome::Crashed ||
           outcome == JobOutcome::TimedOut ||
           outcome == JobOutcome::OutOfMemory;
}

std::string
JobFailure::describe() const
{
    std::ostringstream os;
    os << jobOutcomeName(outcome);
    if (signal)
        os << " (signal " << signal << " " << strsignal(signal) << ")";
    else if (outcome != JobOutcome::SimFault)
        os << " (exit " << exitCode << ")";
    os << " after " << attempts
       << (attempts == 1 ? " attempt" : " attempts");
    if (!message.empty()) {
        // First line only: SimFault messages carry the whole dump.
        const std::size_t nl = message.find('\n');
        os << ": " << message.substr(0, nl);
    }
    return os.str();
}

WorkerRun
runForked(const std::function<std::string()> &job,
          const WorkerLimits &limits)
{
    WorkerRun run;
    int payload_pipe[2];
    int stderr_pipe[2];
    if (::pipe(payload_pipe) != 0) {
        run.failure.message = "pipe() failed";
        return run;
    }
    if (::pipe(stderr_pipe) != 0) {
        ::close(payload_pipe[0]);
        ::close(payload_pipe[1]);
        run.failure.message = "pipe() failed";
        return run;
    }

    // Flush stdio so the child never re-emits buffered parent output.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {payload_pipe[0], payload_pipe[1],
                       stderr_pipe[0], stderr_pipe[1]})
            ::close(fd);
        run.failure.message = "fork() failed";
        return run;
    }
    if (pid == 0) {
        ::close(payload_pipe[0]);
        ::close(stderr_pipe[0]);
        childMain(job, limits, payload_pipe[1], stderr_pipe[1]);
    }

    ::close(payload_pipe[1]);
    ::close(stderr_pipe[1]);
    setNonBlocking(payload_pipe[0]);
    setNonBlocking(stderr_pipe[0]);

    // Drain both pipes together (a full pipe would otherwise wedge
    // the child) until both hit EOF or the deadline passes.
    std::string payload;
    std::string child_stderr;
    bool timed_out = false;
    const auto start = std::chrono::steady_clock::now();
    bool payload_open = true;
    bool stderr_open = true;
    while (payload_open || stderr_open) {
        struct pollfd fds[2];
        nfds_t nfds = 0;
        if (payload_open)
            fds[nfds++] = {payload_pipe[0], POLLIN, 0};
        if (stderr_open)
            fds[nfds++] = {stderr_pipe[0], POLLIN, 0};

        int wait_ms = -1;
        if (limits.timeoutMs) {
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const std::int64_t left =
                static_cast<std::int64_t>(limits.timeoutMs) - elapsed;
            if (left <= 0) {
                timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(left);
        }
        const int ready = ::poll(fds, nfds, wait_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0) {
            timed_out = true;
            break;
        }
        if (payload_open)
            payload_open = drainFd(payload_pipe[0], payload);
        if (stderr_open)
            stderr_open = drainFd(stderr_pipe[0], child_stderr);
    }

    if (timed_out) {
        ::kill(pid, SIGKILL);
        // Late output is still worth keeping for the record.
        drainFd(payload_pipe[0], payload);
        drainFd(stderr_pipe[0], child_stderr);
    }
    ::close(payload_pipe[0]);
    ::close(stderr_pipe[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    JobFailure &f = run.failure;
    f.stderrTail = tailOf(child_stderr, limits.stderrTailBytes);

    if (timed_out) {
        run.outcome = JobOutcome::TimedOut;
        f.outcome = JobOutcome::TimedOut;
        f.signal = SIGKILL;
        return run;
    }
    if (WIFSIGNALED(status)) {
        run.outcome = JobOutcome::Crashed;
        f.outcome = JobOutcome::Crashed;
        f.signal = WTERMSIG(status);
        return run;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code == kOomExitCode) {
        run.outcome = JobOutcome::OutOfMemory;
        f.outcome = JobOutcome::OutOfMemory;
        f.exitCode = code;
        return run;
    }
    if (code == 0 && !payload.empty() && payload[0] == kTagPayload) {
        run.outcome = JobOutcome::Ok;
        run.payload = payload.substr(1);
        return run;
    }
    if (code == 0 && !payload.empty() && payload[0] == kTagSimFault) {
        run.outcome = JobOutcome::SimFault;
        f.outcome = JobOutcome::SimFault;
        f.message = payload.substr(1);
        return run;
    }
    run.outcome = JobOutcome::Crashed;
    f.outcome = JobOutcome::Crashed;
    f.exitCode = code;
    if (code == 0 && !payload.empty() && payload[0] == kTagException)
        f.message = payload.substr(1);
    else if (code == kProtocolExitCode)
        f.message = "worker protocol failure in child";
    else if (payload.empty())
        f.message = "child exited without a payload";
    return run;
}

WorkerRun
runWithRetry(const std::function<std::string()> &job,
             const WorkerLimits &limits, const RetryPolicy &retry,
             std::uint64_t jitterSeed)
{
    const unsigned attempts = retry.maxAttempts ? retry.maxAttempts : 1;
    Rng rng(jitterSeed ^ 0xa5a5a5a5deadbeefull);
    WorkerRun run;
    for (unsigned attempt = 1;; ++attempt) {
        run = runForked(job, limits);
        run.failure.attempts = attempt;
        if (run.ok() || !outcomeIsTransient(run.outcome) ||
            attempt >= attempts) {
            return run;
        }
        // Exponential backoff, capped, with +/-50% deterministic
        // jitter so a herd of retrying workers spreads out while two
        // runs of the same sweep still sleep identically.
        std::uint64_t delay =
            retry.backoffBaseMs
                ? retry.backoffBaseMs << std::min(attempt - 1, 20u)
                : 0;
        delay = std::min(delay, retry.backoffMaxMs);
        if (delay) {
            delay = delay / 2 + rng.below(delay / 2 + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
}

void
Isolation::requireIsolatedJournal(const char *sweep) const
{
    if (!journalPath.empty() && !isolate) {
        ede_fatal("the ", sweep,
                  " journal requires process isolation (--isolate)");
    }
}

std::vector<std::optional<JobFailure>>
runIsolated(const IsolatedSweep &sweep, const Isolation &iso,
            unsigned threads)
{
    const std::size_t n = sweep.jobs.size();
    std::optional<SweepJournal> journal;
    if (!iso.journalPath.empty())
        journal.emplace(iso.journalPath, sweep.sweepId, n, iso.resume);

    std::vector<std::optional<JobFailure>> failures(n);
    auto runJob = [&](std::size_t i) {
        const IsolatedJob &job = sweep.jobs[i];

        if (journal && iso.resume) {
            const auto it = journal->replayed().find(i);
            if (it != journal->replayed().end() &&
                it->second.fingerprint == job.fingerprint) {
                const JournalEntry &e = it->second;
                if (!e.ok) {
                    failures[i] = e.failure;
                    return;
                }
                if (sweep.accept(i, e.payload, /*replayed=*/true))
                    return;
                // Corrupt payload: fall through and re-run.
            }
        }

        if (const std::optional<std::string> payload =
                sweep.local ? sweep.local(i) : std::nullopt) {
            if (journal)
                journal->recordOk(i, job.fingerprint, *payload);
            return;
        }

        const WorkerRun run = runWithRetry(
            [&]() -> std::string {
                if (!iso.chaosLabel.empty() && job.label == iso.chaosLabel)
                    std::abort();
                return sweep.work(i);
            },
            iso.limits, iso.retry, /*jitterSeed=*/job.fingerprint);

        if (run.ok() && sweep.accept(i, run.payload, /*replayed=*/false)) {
            if (journal)
                journal->recordOk(i, job.fingerprint, run.payload);
            return;
        }
        JobFailure failure = run.failure;
        if (run.ok()) {
            failure = JobFailure{};
            failure.attempts = run.failure.attempts;
            failure.message = std::string("worker payload failed ") +
                              sweep.validation + " validation";
        }
        ede_warn(sweep.noun, " '", job.label, "' quarantined: ",
                 failure.describe());
        if (journal)
            journal->recordQuarantine(i, job.fingerprint, failure);
        failures[i] = std::move(failure);
    };

    // libasan's allocator takes no locks around fork(): a worker
    // forked while another thread is inside it can block forever on a
    // lock no thread will release.  An ASan build forks from one
    // thread.
    Scheduler(kAsanBuild ? 1 : threads).parallelFor(n, runJob);
    return failures;
}

} // namespace exp
} // namespace ede
