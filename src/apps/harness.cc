#include "apps/harness.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nvm/undo_log.hh"
#include "sim/session.hh"

namespace ede {

WorkloadHarness::WorkloadHarness(AppId app, Config cfg, RunSpec spec,
                                 AppParams app_params)
    : WorkloadHarness(app, cfg, spec, app_params, makeParams(cfg))
{
}

WorkloadHarness::WorkloadHarness(AppId app, Config cfg, RunSpec spec,
                                 AppParams app_params,
                                 const SimParams &sim_params)
    : appId_(app), cfg_(cfg), spec_(spec)
{
    // The unified SimConfig front end validates the full parameter
    // set -- including that the enforcement mode matches the Table
    // III configuration -- before anything is built.
    system_ = std::make_unique<System>(
        SimConfig::paper(cfg).withCore(sim_params.core)
            .withMem(sim_params.mem));

    // The log rotates through a region sized for one transaction's
    // worst case, mirroring PMDK's per-lane ulogs, which are reused
    // across transactions and therefore stay cache-warm.
    const Addr nvm_base = sim_params.mem.map.nvmBase();
    log_.stateAddr = nvm_base;
    log_.entriesBase = nvm_base + 64;
    log_.capacity = std::max<std::uint64_t>(4096,
                                            spec_.opsPerTxn * 128);

    Addr heap_base = log_.stateAddr + log_.footprint();
    heap_base = (heap_base + 4095) & ~Addr{4095};
    const Addr heap_size =
        sim_params.mem.map.limit() - heap_base;
    heap_ = std::make_unique<PersistentHeap>(heap_base, heap_size);

    builder_ = std::make_unique<TraceBuilder>(trace_);
    framework_ = std::make_unique<NvmFramework>(
        cfg_, *builder_, system_->volatileImage(), *heap_, log_);
    // Backdoor pool initialization: durable in both images, and the
    // line is made cache-resident (functional warmup).
    framework_->setBackdoor(
        [this](Addr addr, std::uint64_t value, int warm_level) {
            system_->timingImage().write<std::uint64_t>(addr, value);
            system_->nvmImage().write<std::uint64_t>(addr, value);
            system_->mem().warmLine(addr, warm_level);
        });
    app_ = makeApp(appId_, *framework_, app_params);
}

void
WorkloadHarness::enableAudit()
{
    ede_assert(!simulated_, "enable auditing before simulate()");
    auditing_ = true;
    system_->recordCompletions(true);
    system_->recordPersistData(true);
}

void
WorkloadHarness::generate()
{
    ede_assert(!generated_, "generate() is single-shot");
    generated_ = true;
    setupEndIdx_ = generateWorkload(*app_, *framework_, spec_);
}

Cycle
WorkloadHarness::setupCompleteCycle() const
{
    ede_assert(auditing_ && simulated_,
               "setupCompleteCycle needs enableAudit() and a "
               "completed run");
    return system_->completionCycles().at(setupEndIdx_);
}

Cycle
WorkloadHarness::simulate()
{
    ede_assert(generated_, "generate() before simulate()");
    ede_assert(!simulated_, "simulate() is single-shot");
    simulated_ = true;
    if (auditing_) {
        // Backdoor-initialized pool contents are durable before the
        // run starts; crash images build on top of them.
        baselineNvm_ = system_->nvmImage();
    }
    system_->core().watchCompletion(setupEndIdx_);
    const Cycle cycles = system_->run(trace_);
    if (const SimError &err = system_->core().simError())
        throw SimFaultError(err);
    return cycles;
}

Cycle
WorkloadHarness::opPhaseCycles() const
{
    ede_assert(simulated_, "opPhaseCycles needs a completed run");
    const Cycle setup_done =
        system_->core().watchedCompletion(setupEndIdx_);
    ede_assert(setup_done != kNoCycle, "setup fence never completed");
    return system_->core().stats().cycles - setup_done;
}

AuditReport
WorkloadHarness::audit() const
{
    ede_assert(auditing_ && simulated_,
               "audit needs enableAudit() and a completed run");
    return auditPersistOrdering(framework_->obligations(),
                                system_->completionCycles());
}

const MemoryImage &
WorkloadHarness::baselineNvm() const
{
    ede_assert(auditing_ && simulated_,
               "baselineNvm needs enableAudit() and a completed run");
    return baselineNvm_;
}

std::vector<Cycle>
WorkloadHarness::commitCycles() const
{
    ede_assert(auditing_ && simulated_,
               "commitCycles needs enableAudit() and a completed run");
    const std::vector<Cycle> &done = system_->completionCycles();
    std::vector<Cycle> cycles;
    cycles.reserve(framework_->commitMarks().size());
    for (std::size_t idx : framework_->commitMarks())
        cycles.push_back(done.at(idx));
    return cycles;
}

MemoryImage
WorkloadHarness::recoveredImageAt(Cycle crashCycle) const
{
    ede_assert(auditing_ && simulated_,
               "crash images need enableAudit() and a completed run");
    MemoryImage img = baselineNvm_;
    applyPersistEvents(img, system_->persistEvents(), crashCycle);
    recoverUndoLog(img, log_);
    return img;
}

} // namespace ede
