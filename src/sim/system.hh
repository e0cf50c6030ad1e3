/**
 * @file
 * The assembled simulated system: N cores + shared hierarchy + the
 * three memory images.  Cores are homogeneous, each with a private
 * L1D / write buffer / EDM, meeting at the L2 coherence point; a
 * CrossCoreOrdering file (multi-core only) widens the EDE WAIT
 * counters across that point.
 *
 * Image roles:
 *  - volatileImage: mutated by the *functional* execution while the
 *    workload emits its trace (architectural end state);
 *  - timingImage: updated in store-visibility order as the timing
 *    simulation drains the write buffer (coherent memory state);
 *  - nvmImage: updated only when lines enter the NVM persistence
 *    domain -- this is the state that survives a crash.
 */

#ifndef EDE_SIM_SYSTEM_HH
#define EDE_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/memory_image.hh"
#include "pipeline/core.hh"
#include "sim/config.hh"
#include "sim/sim_config.hh"
#include "traffic/latency.hh"

namespace ede {

/** One write entering the persistence domain. */
struct PersistEvent
{
    Addr addr = kNoAddr;
    std::uint32_t size = 0;
    Cycle cycle = kNoCycle;

    /**
     * Trace index of the store/CVAP that pushed this write from the
     * write buffer, or kNoOrigin for cache evictions.  The model
     * checker uses this to bind each persist event to the EDK/fence
     * constraints of its originating instruction.
     */
    TraceIndex origin = kNoOrigin;

    /** Core whose push persisted; meaningful when origin is real. */
    unsigned core = 0;

    /** Durable bytes; filled only when data recording is enabled. */
    std::vector<std::uint8_t> bytes;
};

/**
 * One 256 B line completing its media write.  Under a failed
 * power-down drain only lines already on media are guaranteed
 * durable; the fault campaign joins these against persist events to
 * decide which WPQ slots an adversarial crash may drop.
 */
struct MediaWriteEvent
{
    Addr lineAddr = kNoAddr;  ///< 256 B aligned media line.
    Cycle cycle = kNoCycle;
};

/** One core's slice of a multi-core run. */
struct CoreRunStats
{
    unsigned core = 0;        ///< Core index.
    CoreStats stats;          ///< Pipeline counters (incl. cycles).
    WriteBufferStats wb;      ///< This core's write buffer.
    CacheStats l1d;           ///< This core's private L1D.
};

void
visitFields(auto &v, FieldsOf<CoreRunStats> auto &s)
{
    v("core", s.core);
    v("stats", s.stats);
    v("wb", s.wb);
    v("l1d", s.l1d);
}

/** Copyable snapshot of every statistic a bench needs. */
struct RunResult
{
    Config config = Config::B;
    Cycle cycles = 0;          ///< Machine run length (slowest core).
    unsigned coreCount = 1;

    /** @name Core 0's counters (the historical single-core fields). */
    /// @{
    CoreStats core;
    WriteBufferStats wb;
    CacheStats l1d;
    /// @}

    /** Per-core breakdown, index order; size == coreCount. */
    std::vector<CoreRunStats> perCore;

    NvmStats nvm;
    Distribution nvmOccupancy{128, 1};
    CacheStats l2;
    CacheStats l3;
    DramStats dram;
    CoherenceStats coherence; ///< Zero on a single-core machine.

    /**
     * Open-loop tail-latency records; enabled only when the run was
     * driven by a traffic plan (RunRequest::ofTraffic).
     */
    traffic::TrafficResult traffic;
};

void
visitFields(auto &v, FieldsOf<RunResult> auto &r)
{
    v("config", r.config, configName);
    v("cycles", r.cycles);
    v("core_count", r.coreCount);
    v("core", r.core);
    v("wb", r.wb);
    v("l1d", r.l1d);
    v("per_core", r.perCore);
    v("nvm", r.nvm);
    v("nvm_occupancy", r.nvmOccupancy);
    v.derived("nvm_occupancy_mean", r.nvmOccupancy.mean());
    v("l2", r.l2);
    v("l3", r.l3);
    v("dram", r.dram);
    v("coherence", r.coherence);
    v("traffic", omitUnless(r.traffic, r.traffic.enabled));
}

/** An N-core simulated machine sharing one hierarchy at the L2. */
class System
{
  public:
    /** Build for configuration @p cfg with Table I parameters. */
    explicit System(Config cfg);

    /** Build with explicit parameters (ablation sweeps). */
    System(Config cfg, const SimParams &params);

    /**
     * Build from a unified SimConfig.  The configuration is
     * validated first; error-level diagnostics are fatal with the
     * full report.
     */
    explicit System(const SimConfig &config);

    /** @name Memory images. */
    /// @{
    MemoryImage &volatileImage() { return volatileImage_; }
    MemoryImage &timingImage() { return timingImage_; }
    MemoryImage &nvmImage() { return nvmImage_; }
    const MemoryImage &nvmImage() const { return nvmImage_; }
    /// @}

    /** Record per-trace-index completion cycles (audit support). */
    void
    recordCompletions(bool on)
    {
        for (auto &c : cores_)
            c->setRecordCompletions(on);
    }

    /** Also capture the bytes of every persist event (crash images). */
    void recordPersistData(bool on) { recordPersistData_ = on; }

    /**
     * Run one trace per core, lock-step, to completion; @return the
     * machine run length (the slowest core's finish cycle).  Check
     * firstError() before trusting the count.
     */
    Cycle run(const std::vector<Trace> &traces);

    /** Single-core convenience; @pre coreCount() == 1. */
    Cycle run(const Trace &trace);

    /** Persistence-domain entry events, in order. */
    const std::vector<PersistEvent> &persistEvents() const
    {
        return persistEvents_;
    }

    /** Media-write completions, in order. */
    const std::vector<MediaWriteEvent> &mediaWriteEvents() const
    {
        return mediaWriteEvents_;
    }

    /** Core 0's completion cycles (needs recording on). */
    const std::vector<Cycle> &completionCycles() const
    {
        return cores_.front()->completionCycles();
    }

    /** Per-trace-index completion cycles of core @p i. */
    const std::vector<Cycle> &completionCycles(unsigned i) const
    {
        return cores_.at(i)->completionCycles();
    }

    /** Statistics snapshot. */
    RunResult result() const;

    /** Host-perf profile of the (completed) run. */
    const HostProfile &profile() const { return profile_; }

    /**
     * The first core (index order) that stopped on a structured
     * error, or nullptr after a clean run.  On a multi-core machine
     * any core's abort stops the whole group, so this is the root
     * diagnostic.
     */
    const SimError *firstError() const;

    /** @name Component access. */
    /// @{
    OoOCore &core() { return *cores_.front(); }
    const OoOCore &core() const { return *cores_.front(); }
    OoOCore &core(unsigned i) { return *cores_.at(i); }
    const OoOCore &core(unsigned i) const { return *cores_.at(i); }
    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    MemSystem &mem() { return *mem_; }
    const MemSystem &mem() const { return *mem_; }
    Config config() const { return cfg_; }
    const SimParams &params() const { return params_; }
    /// @}

  private:
    void wire();

    Config cfg_;
    SimParams params_;
    MemoryImage volatileImage_;
    MemoryImage timingImage_;
    MemoryImage nvmImage_;
    std::unique_ptr<MemSystem> mem_;
    std::vector<std::unique_ptr<OoOCore>> cores_;
    std::unique_ptr<CrossCoreOrdering> xcore_; ///< Null on one core.
    std::vector<PersistEvent> persistEvents_;
    std::vector<MediaWriteEvent> mediaWriteEvents_;
    HostProfile profile_;
    bool recordPersistData_ = false;
};

} // namespace ede

#endif // EDE_SIM_SYSTEM_HH
