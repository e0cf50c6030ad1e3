/**
 * @file
 * Workload harness: builds a complete simulated run for one
 * (application, configuration) pair.
 *
 * Owns the System, the trace, the heap/log placement, the framework
 * and the application, in the right order, so benches and tests can
 * express a full experiment in three lines:
 *
 *   WorkloadHarness h(AppId::Btree, Config::WB, spec);
 *   h.generate();
 *   h.simulate();
 */

#ifndef EDE_APPS_HARNESS_HH
#define EDE_APPS_HARNESS_HH

#include <memory>

#include "apps/app.hh"
#include "apps/driver.hh"
#include "audit/auditor.hh"
#include "nvm/framework.hh"
#include "sim/system.hh"
#include "trace/builder.hh"

namespace ede {

/** One experiment instance. */
class WorkloadHarness
{
  public:
    WorkloadHarness(AppId app, Config cfg, RunSpec spec = {},
                    AppParams app_params = {});

    /** As above with explicit simulator parameters (ablations). */
    WorkloadHarness(AppId app, Config cfg, RunSpec spec,
                    AppParams app_params, const SimParams &sim_params);

    /** Enable audit support (completion + persist-data recording). */
    void enableAudit();

    /** Functionally execute the workload, emitting the trace. */
    void generate();

    /**
     * Run the timing simulation. @return total cycles.  A structured
     * simulator abort (watchdog, max-cycles, EDK dependence cycle)
     * raises SimFaultError, so isolated experiment workers can
     * classify it as a typed SimFault failure record.
     */
    Cycle simulate();

    /**
     * Cycles spent in the transaction phase (total minus setup).
     * This matches the paper's measurement, which times the
     * operations, not pool initialization (Section VI-B).
     */
    Cycle opPhaseCycles() const;

    /** Persist-ordering audit (requires enableAudit + both phases). */
    AuditReport audit() const;

    /**
     * Durable state at @p crashCycle, after undo-log recovery
     * (requires enableAudit).
     */
    MemoryImage recoveredImageAt(Cycle crashCycle) const;

    /**
     * First cycle at which the initial structure is fully durable;
     * crash points sampled before this see a half-built pool
     * (requires enableAudit and a completed run).
     */
    Cycle setupCompleteCycle() const;

    /**
     * Durable pool contents before the run started -- the base every
     * crash image is reconstructed on (requires enableAudit and a
     * completed run).
     */
    const MemoryImage &baselineNvm() const;

    /**
     * Completion cycle of each transaction's state-clear persist, in
     * transaction order: the commit boundaries the crash campaign
     * stratifies over (requires enableAudit and a completed run).
     */
    std::vector<Cycle> commitCycles() const;

    /** @name Component access. */
    /// @{
    System &system() { return *system_; }
    const System &system() const { return *system_; }
    App &app() { return *app_; }
    const App &app() const { return *app_; }
    NvmFramework &framework() { return *framework_; }
    const NvmFramework &framework() const { return *framework_; }
    Trace &trace() { return trace_; }
    const Trace &trace() const { return trace_; }
    const RunSpec &spec() const { return spec_; }
    Config config() const { return cfg_; }
    AppId appId() const { return appId_; }
    /// @}

  private:
    AppId appId_;
    Config cfg_;
    RunSpec spec_;
    std::unique_ptr<System> system_;
    Trace trace_;
    std::unique_ptr<TraceBuilder> builder_;
    std::unique_ptr<PersistentHeap> heap_;
    UndoLogLayout log_;
    std::unique_ptr<NvmFramework> framework_;
    std::unique_ptr<App> app_;
    MemoryImage baselineNvm_;  ///< Durable state before the run.
    std::size_t setupEndIdx_ = 0;
    bool generated_ = false;
    bool simulated_ = false;
    bool auditing_ = false;
};

} // namespace ede

#endif // EDE_APPS_HARNESS_HH
