/**
 * @file
 * Cycle-level out-of-order core with EDE support.
 *
 * Models the A72-like configuration of Table I: 3-wide in-order
 * fetch/dispatch and retire, an 8-wide unified issue queue with
 * register/memory/execution-dependence wakeup, split 16-entry
 * load/store queues with store-to-load forwarding, a 128-entry ROB,
 * and a 16-entry post-retirement write buffer that drains out of
 * order.
 *
 * Instruction completion follows Section IV-B1 of the paper: ALU ops
 * and loads complete at writeback; stores complete when their write
 * buffer push lands in the L1D (globally visible); DC CVAP completes
 * when the line is accepted by the persistent on-DIMM buffer; DSB SY
 * completes when every older instruction has completed and blocks
 * issue of all younger instructions until then; DMB ST only orders
 * store visibility; WAIT_KEY / WAIT_ALL_KEYS retire when the EDE
 * counters report no tracked older instruction.
 *
 * EDE enforcement is selected by CoreParams::ede:
 *  - IQ: consumers stall in the issue queue (eDepReady) until the
 *    producer completes;
 *  - WB: store/writeback/JOIN consumers retire freely and are gated
 *    by srcID tags in the write buffer; load consumers (the future-
 *    work variant) still gate at issue because loads observe memory
 *    at execute.
 *
 * Mispredicted conditional branches squash all younger instructions
 * when they execute: the speculative EDM and the register map are
 * restored from non-speculative state plus a replay of the surviving
 * in-flight definitions, and fetch resumes after a refill penalty.
 */

#ifndef EDE_PIPELINE_CORE_HH
#define EDE_PIPELINE_CORE_HH

#include <array>
#include <deque>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/cross_core.hh"
#include "core/edm.hh"
#include "exp/profile.hh"
#include "core/wait_counters.hh"
#include "mem/memory_image.hh"
#include "mem/mem_system.hh"
#include "pipeline/inflight.hh"
#include "pipeline/params.hh"
#include "pipeline/predictor.hh"
#include "pipeline/sim_error.hh"
#include "pipeline/write_buffer.hh"
#include "trace/trace.hh"

namespace ede {

/** Aggregate core statistics. */
struct CoreStats
{
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issuedOps = 0;
    Histogram issueHist{9};          ///< Fig. 11: issued per cycle, 0..8.
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t squashes = 0;
    std::uint64_t squashedInsts = 0;
    std::uint64_t loadsForwarded = 0;
    std::uint64_t retireStallWbFull = 0;
    std::uint64_t dispatchStallRob = 0;
    std::uint64_t dispatchStallIq = 0;
    std::uint64_t dispatchStallLsq = 0;

    /** @name Runtime EDK stall analyzer (see CoreParams::edkStallCycles). */
    /// @{
    std::uint64_t edkStallChecks = 0;      ///< Analyzer invocations.
    std::uint64_t edkExternalStalls = 0;   ///< Long-latency memory, not a cycle.
    std::uint64_t edkStuckDetected = 0;    ///< Unresolvable chains found.
    std::uint64_t edkFencesSynthesized = 0;///< Degrade-mode gate releases.
    /// @}

    /** Retired instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(retired) / cycles : 0.0;
    }
};

void
visitFields(auto &v, FieldsOf<CoreStats> auto &s)
{
    v("cycles", s.cycles);
    v("retired", s.retired);
    v("dispatched", s.dispatched);
    v("issued_ops", s.issuedOps);
    v("issue_hist", s.issueHist);
    v("branches", s.branches);
    v("mispredicts", s.mispredicts);
    v("squashes", s.squashes);
    v("squashed_insts", s.squashedInsts);
    v("loads_forwarded", s.loadsForwarded);
    v("retire_stall_wb_full", s.retireStallWbFull);
    v("dispatch_stall_rob", s.dispatchStallRob);
    v("dispatch_stall_iq", s.dispatchStallIq);
    v("dispatch_stall_lsq", s.dispatchStallLsq);
    v("edk_stall_checks", s.edkStallChecks);
    v("edk_external_stalls", s.edkExternalStalls);
    v("edk_stuck_detected", s.edkStuckDetected);
    v("edk_fences_synthesized", s.edkFencesSynthesized);
    v.derived("ipc", s.ipc());
}

/** The out-of-order core. */
class OoOCore
{
  public:
    /**
     * @param mem    the memory hierarchy this core issues into
     * @param coreId this core's index into @p mem's private L1s
     */
    OoOCore(CoreParams params, MemSystem &mem, unsigned coreId = 0);

    /** This core's index in its System (0 on a single-core machine). */
    unsigned coreId() const { return coreId_; }

    /**
     * Attach the shared cross-core WAIT-counter aggregation.  When
     * attached, every WaitCounters enter/exit is mirrored into the
     * shared file and WAIT_KEY / WAIT_ALL_KEYS retirement additionally
     * requires the *remote* counters for the key to be clear -- the
     * paper's counters, widened across the coherence point.  Detached
     * (single-core) behaviour is bit-identical to the historical core.
     */
    void setCrossCore(CrossCoreOrdering *xcore) { xcore_ = xcore; }

    /**
     * Attach the coherent ("timing") memory image; store values are
     * applied to it in visibility order as stores complete.
     */
    void setTimingImage(MemoryImage *image) { timingImage_ = image; }

    /** Record the completion cycle of every trace element. */
    void setRecordCompletions(bool on) { recordCompletions_ = on; }

    /** Per-trace-index completion cycles (needs recording enabled). */
    const std::vector<Cycle> &completionCycles() const
    {
        return completionCycles_;
    }

    /**
     * Watch a single trace element's completion without paying for
     * full recording (used to delimit the measured phase).
     */
    void
    watchCompletion(std::size_t trace_idx)
    {
        watched_.emplace(trace_idx, kNoCycle);
    }

    /** Completion cycle of a watched element (kNoCycle if not yet). */
    Cycle
    watchedCompletion(std::size_t trace_idx) const
    {
        auto it = watched_.find(trace_idx);
        return it == watched_.end() ? kNoCycle : it->second;
    }

    /**
     * Run @p trace to completion; @return total cycles.  When the
     * progress watchdog or the maxCycles backstop fires, the run
     * stops early and simError() carries the diagnostic report --
     * callers must check it before trusting the cycle count.
     */
    Cycle run(const Trace &trace);

    /** Structured abort report; kind == None after a clean run. */
    const SimError &simError() const { return simError_; }

    const CoreStats &stats() const { return stats_; }

    /**
     * Attach a host-perf profile; run() adds its wall time, sampled
     * phase estimates and skip counters to it.  Host-side only:
     * attaching a profile never changes simulated behaviour.
     */
    void setProfile(HostProfile *profile) { profile_ = profile; }

    /** The concrete (Auto-resolved) ticking mode this core runs. */
    TickingMode ticking() const { return ticking_; }

    /** Write buffer statistics. */
    const WriteBufferStats &wbStats() const { return wb_->stats(); }

    /** EDM access for tests. */
    const Edm &edm() const { return edm_; }

    /**
     * Fault-injection seam: when the element at @p trace_idx
     * dispatches, overwrite its resolved EDE consumer link with its
     * own sequence number plus @p seq_offset.  A positive offset
     * forges a *forward* link -- the corruption a soft error in the
     * EDM srcID field would produce -- which is the only way this
     * pipeline can form a genuine dependence cycle: architecturally,
     * rename always resolves consumer links to older instructions.
     * Used by the detector tests and the fuzz campaign's
     * hardware-fault programs.
     */
    void
    corruptEdeLink(std::size_t trace_idx, SeqNum seq_offset)
    {
        edeSrcOverrides_[trace_idx] = seq_offset;
    }

  private:
    struct ExecEvent
    {
        Cycle due;
        SeqNum seq;
        bool operator>(const ExecEvent &o) const { return due > o.due; }
    };

    /**
     * One cycle.  @p timed is the run's phase sample on a sampled
     * host tick (PhaseSampler::tick), null on every other tick.
     */
    void tickOnce(Cycle now, HostProfile *timed);

    /**
     * The core-private portion of tickOnce: everything except the
     * shared memory hierarchy's tick.  CoreGroup ticks the hierarchy
     * exactly once per cycle and then runs each core's pipeline, so
     * the split keeps a shared MemSystem from being advanced N times.
     */
    void tickPipeline(Cycle now, HostProfile *timed);

    /** Per-run initialization shared by run() and CoreGroup. */
    void beginRun(const Trace &trace);

    /** @name Cross-core-aware WAIT retirement conditions. */
    /// @{
    bool
    waitKeyClear(Edk key) const
    {
        return counters_.keyClear(key) &&
               (!xcore_ || xcore_->remoteKeyClear(coreId_, key));
    }

    bool
    waitAllClear() const
    {
        return counters_.allClear() &&
               (!xcore_ || xcore_->remoteAllClear(coreId_));
    }
    /// @}

    /** WaitCounters enter/exit, mirrored into the shared file. */
    void
    countersEnter(const StaticInst &si)
    {
        counters_.enter(si);
        if (xcore_)
            xcore_->enter(coreId_, si);
    }

    void
    countersExit(const StaticInst &si)
    {
        counters_.exit(si);
        if (xcore_)
            xcore_->exit(coreId_, si);
    }

    /**
     * The per-cycle run-loop checks (EDK stall analyzer, progress
     * watchdog, maxCycles backstop), shared verbatim by both ticking
     * modes.  @return true when the run must stop (simError_ set).
     */
    bool runChecks(Cycle now);

    /**
     * Skip-ahead: the earliest cycle > @p now at which anything can
     * happen -- the minimum over every component's nextEventCycle
     * hint, the core's own timed events (execution writebacks, the
     * fetch-redirect resume), and the exact next firing cycles of the
     * run-loop checks.  Only meaningful right after a dead tick.
     */
    Cycle skipTarget(Cycle now) const;

    void pollLoads(Cycle now);
    void execWriteback(Cycle now);
    void checkDsbCompletion(Cycle now);
    void checkDmbCompletion(Cycle now);
    void retire(Cycle now);
    void issue(Cycle now);
    void dispatch(Cycle now);
    void squash(InflightInst &branch, Cycle now);

    /** How the stall analyzer classified a no-progress window. */
    enum class EdkStallClass
    {
        NotEde,   ///< No EDE-gated waiter exists; not our stall.
        External, ///< Every chain ends at an operation still in flight
                  ///< in the memory system (e.g. an NVM media write).
        Stuck,    ///< Some chain can never resolve (cycle/dangling).
    };

    /** Result of one analyzer invocation. */
    struct EdkStallAnalysis
    {
        EdkStallClass cls = EdkStallClass::NotEde;
        bool cycleFound = false;
        SeqNum release = kNoSeq; ///< Oldest stuck EDE-gated waiter.
        bool releasableNow = false; ///< Older completable work drained.
        std::vector<EdkChainNode> chain; ///< For the SimError report.
    };

    /** Tri-color DFS bookkeeping for the analyzer walk. */
    struct EdkWalk
    {
        std::unordered_map<SeqNum, int> color; ///< 1 grey, 2 done.
        std::unordered_map<SeqNum, bool> progressing;
        std::unordered_map<SeqNum, SeqNum> waitsOn;
        std::vector<SeqNum> stack;
        std::vector<SeqNum> cycle;
    };

    EdkStallAnalysis analyzeEdkStall();
    bool edkClassify(SeqNum s, EdkWalk &walk) const;
    bool edkNodeProgressing(SeqNum s,
                            std::vector<SeqNum> &blockers) const;
    EdkChainNode edkChainNode(SeqNum s, const EdkWalk &walk) const;
    void applyEdkDegrade(const EdkStallAnalysis &a, Cycle now);

    InflightInst *find(SeqNum seq);
    bool regsReady(const InflightInst &inst) const;
    bool edeIssueReady(const InflightInst &inst) const;
    bool gatesAtIssue(const InflightInst &inst) const;
    void completeSeq(SeqNum seq, const StaticInst &si,
                     std::size_t trace_idx, Cycle now);
    void onWbComplete(const WbEntry &entry, Cycle now);
    bool storesOlderIncomplete(SeqNum barrier) const;
    void recordCompletion(std::size_t trace_idx, Cycle now);
    bool finished() const;
    SimError buildSimError(SimErrorKind kind, Cycle now) const;

    friend class CoreGroup;

    CoreParams params_;
    MemSystem &mem_;
    unsigned coreId_ = 0;
    CrossCoreOrdering *xcore_ = nullptr;
    MemoryImage *timingImage_ = nullptr;

    const Trace *trace_ = nullptr;
    std::size_t fetchIdx_ = 0;
    Cycle fetchResumeAt_ = 0;
    SeqNum nextSeq_ = 1;

    std::deque<InflightInst> rob_;
    std::unordered_map<SeqNum, InflightInst *> index_;
    std::vector<SeqNum> iq_;        ///< Age-ordered issue queue.
    std::deque<SeqNum> lq_;
    std::deque<SeqNum> sq_;
    std::unique_ptr<WriteBuffer> wb_;

    std::array<SeqNum, kNumArchRegs> regMap_{};
    std::set<SeqNum> notExecuted_;
    std::set<SeqNum> incomplete_;
    std::set<SeqNum> incompleteStores_;
    std::set<SeqNum> incompleteCvaps_;
    std::set<SeqNum> incompleteDsbs_;
    std::set<SeqNum> incompleteDmbs_;
    std::vector<SeqNum> dmbSeqs_;   ///< All DMB ST seqs, ascending.

    Edm edm_;
    WaitCounters counters_;
    BranchPredictor predictor_;

    std::priority_queue<ExecEvent, std::vector<ExecEvent>,
                        std::greater<ExecEvent>> pendingExec_;
    std::unordered_map<ReqId, SeqNum> outstandingLoads_;
    std::unordered_set<ReqId> orphanReqs_;

    bool recordCompletions_ = false;
    std::vector<Cycle> completionCycles_;
    std::unordered_map<std::size_t, Cycle> watched_;
    bool ran_ = false;
    Cycle lastProgressCycle_ = 0;
    Cycle lastEdkCheckCycle_ = 0;
    /** Concrete loop strategy (CoreParams::ticking, Auto resolved). */
    TickingMode ticking_ = TickingMode::SkipAhead;
    /** Set by any state-changing pipeline action during tickOnce. */
    bool progress_ = false;
    HostProfile *profile_ = nullptr;
    SimError simError_;
    /** traceIdx -> forged edeSrc offset (fault-injection seam). */
    std::unordered_map<std::size_t, SeqNum> edeSrcOverrides_;

    CoreStats stats_;
};

} // namespace ede

#endif // EDE_PIPELINE_CORE_HH
