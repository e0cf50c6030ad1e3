#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "pipeline/run_loop.hh"

namespace ede {

System::System(Config cfg) : System(SimConfig::paper(cfg)) {}

System::System(Config cfg, const SimParams &params)
    : System(SimConfig::paper(cfg).withCore(params.core)
                 .withMem(params.mem)
                 .withCoreCount(params.coreCount))
{
}

System::System(const SimConfig &config)
    : cfg_(config.config()), params_(config.params())
{
    const SimConfigReport report = config.validate();
    ede_assert(report.accepted(), "invalid SimConfig:\n",
               report.describe());
    wire();
}

void
System::wire()
{
    const auto n = static_cast<unsigned>(params_.coreCount);
    mem_ = std::make_unique<MemSystem>(params_.mem, n);
    if (n > 1)
        xcore_ = std::make_unique<CrossCoreOrdering>(n);
    for (unsigned i = 0; i < n; ++i) {
        auto core = std::make_unique<OoOCore>(params_.core, *mem_, i);
        core->setTimingImage(&timingImage_);
        if (xcore_)
            core->setCrossCore(xcore_.get());
        cores_.push_back(std::move(core));
    }

    // Entering the persistent on-DIMM buffer makes a line durable:
    // snapshot its coherent contents into the crash image.
    mem_->controller().nvm().setPersistHook(
        [this](Addr addr, std::uint32_t size, Cycle now,
               TraceIndex origin, unsigned core) {
            nvmImage_.copyRange(timingImage_, addr, size);
            PersistEvent ev;
            ev.addr = addr;
            ev.size = size;
            ev.cycle = now;
            ev.origin = origin;
            ev.core = core;
            if (recordPersistData_) {
                ev.bytes.resize(size);
                timingImage_.read(addr, ev.bytes.data(), size);
            }
            persistEvents_.push_back(std::move(ev));
        });

    mem_->controller().nvm().setMediaWriteHook(
        [this](Addr line, Cycle now) {
            mediaWriteEvents_.push_back(MediaWriteEvent{line, now});
        });
}

Cycle
System::run(const std::vector<Trace> &traces)
{
    ede_assert(traces.size() == cores_.size(),
               "System::run needs one trace per core (",
               cores_.size(), " cores, ", traces.size(), " traces)");
    std::vector<OoOCore *> cores;
    std::vector<const Trace *> ptrs;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores.push_back(cores_[i].get());
        ptrs.push_back(&traces[i]);
    }
    return CoreGroup(std::move(cores)).run(ptrs, &profile_);
}

Cycle
System::run(const Trace &trace)
{
    ede_assert(cores_.size() == 1,
               "System::run(Trace) is the single-core entry point; "
               "this machine has ", cores_.size(),
               " cores -- pass one trace per core");
    return CoreGroup({cores_.front().get()}).run({&trace}, &profile_);
}

const SimError *
System::firstError() const
{
    for (const auto &c : cores_) {
        if (c->simError().kind != SimErrorKind::None)
            return &c->simError();
    }
    return nullptr;
}

RunResult
System::result() const
{
    RunResult r;
    r.config = cfg_;
    r.coreCount = coreCount();
    for (const auto &c : cores_) {
        CoreRunStats per;
        per.core = c->coreId();
        per.stats = c->stats();
        per.wb = c->wbStats();
        per.l1d = mem_->l1d(c->coreId()).stats();
        r.cycles = std::max(r.cycles, per.stats.cycles);
        r.perCore.push_back(std::move(per));
    }
    r.core = r.perCore.front().stats;
    r.wb = r.perCore.front().wb;
    r.l1d = r.perCore.front().l1d;
    const MemSystem &m = *mem_;
    r.nvm = m.controller().nvm().stats();
    r.nvmOccupancy = m.controller().nvm().occupancyDist();
    r.l2 = m.l2().stats();
    r.l3 = m.l3().stats();
    r.dram = m.controller().dram().stats();
    r.coherence = m.coherenceStats();
    return r;
}

} // namespace ede
