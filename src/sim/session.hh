/**
 * @file
 * Session: one validated simulation from configuration to result.
 *
 * A machine runs once (warm predictor/EDM state must never leak
 * between runs), and its cycle count means nothing until simError()
 * has been checked.  Session packages that contract around one entry
 * point:
 *
 *   Session s(SimConfig::paper(Config::WB));
 *   SimResult r = s.run(RunRequest::of(trace));
 *   if (!r.ok()) ...            // structured SimError
 *   use(r.cycles(), r.stats, r.profile);
 *
 * A RunRequest names the workload -- one trace, one trace per core,
 * or an open-loop traffic plan (traffic/stream_mux.hh) -- and every
 * outcome flows back through the same result-or-SimError channel:
 * request validation failures (RunRequestInvalid, SessionReused,
 * CoreCountKeyExhausted) are reported exactly like machine aborts,
 * so sweep drivers handle one shape.  Callers who prefer an
 * exception rethrow r.error as a SimFaultError themselves.
 *
 * The configuration is validated up front -- error diagnostics stop
 * construction with the full report, instead of a component assert
 * firing somewhere inside the build.
 */

#ifndef EDE_SIM_SESSION_HH
#define EDE_SIM_SESSION_HH

#include <stdexcept>

#include "exp/profile.hh"
#include "sim/sim_config.hh"
#include "sim/system.hh"
#include "traffic/stream_mux.hh"

namespace ede {

/**
 * A structured simulator abort (watchdog, max-cycles backstop, EDK
 * dependence cycle) raised as an exception.  what() carries the kind
 * name, the abort cycle and the full diagnostic dump, so an isolated
 * experiment worker can ship the whole report to its parent as a
 * typed SimFault failure record instead of dying on a panic.
 */
class SimFaultError : public std::runtime_error
{
  public:
    explicit SimFaultError(SimError error);

    /** The full structured report. */
    const SimError &error() const { return error_; }

    SimErrorKind kind() const { return error_.kind; }

  private:
    SimError error_;
};

/** Everything one simulation produced. */
struct SimResult
{
    RunResult stats;      ///< Statistics snapshot (cycles, counters).
    SimError error;       ///< kind == None after a clean run.
    HostProfile profile;  ///< Host-side wall-clock / skip counters.

    /** True when the run finished without a structured error. */
    bool ok() const { return error.kind == SimErrorKind::None; }

    Cycle cycles() const { return stats.cycles; }
};

/**
 * One validated workload request: either explicit traces (one per
 * core) or a traffic plan the session expands itself.  Built through
 * the factories; Session::run rejects malformed requests with a
 * structured RunRequestInvalid instead of asserting.
 */
struct RunRequest
{
    /** One trace per core, index order (trace i binds to core i). */
    std::vector<Trace> traces;

    /** When set, @ref traffic drives the run and traces are built. */
    bool hasTraffic = false;
    traffic::TrafficPlan traffic;

    /** Single-core request. */
    static RunRequest
    of(Trace trace)
    {
        RunRequest req;
        req.traces.push_back(std::move(trace));
        return req;
    }

    /** Multi-core request; one trace per core. */
    static RunRequest
    perCore(std::vector<Trace> traces)
    {
        RunRequest req;
        req.traces = std::move(traces);
        return req;
    }

    /** Open-loop traffic request (see traffic/stream_mux.hh). */
    static RunRequest
    ofTraffic(const traffic::TrafficPlan &plan)
    {
        RunRequest req;
        req.hasTraffic = true;
        req.traffic = plan;
        return req;
    }
};

/** A single-shot simulation session over a validated SimConfig. */
class Session
{
  public:
    /** Validates @p config; error diagnostics are fatal here. */
    explicit Session(const SimConfig &config);

    /**
     * Run @p request to completion.  Single-shot, like the cores it
     * wraps: a second call returns a SessionReused error without
     * touching the machine.  Invalid requests (no workload, a
     * trace-per-core mismatch, a malformed traffic plan) return
     * RunRequestInvalid -- also without consuming the session, so a
     * driver may correct the request and retry.
     *
     * Traffic requests expand the plan into per-core traces, enable
     * completion recording, and fill stats.traffic with the exact
     * open-loop tail-latency records after the machine run.
     */
    SimResult run(const RunRequest &request);

    /** True once a request has actually reached the machine. */
    bool ran() const { return ran_; }

    /** @name Pre-run knobs and component access. */
    /// @{
    System &system() { return system_; }
    const System &system() const { return system_; }
    const SimConfig &config() const { return config_; }
    /// @}

  private:
    SimResult collect() const;

    SimConfig config_;
    System system_;
    bool ran_ = false;
};

} // namespace ede

#endif // EDE_SIM_SESSION_HH
