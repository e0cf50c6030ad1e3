/**
 * @file
 * Per-instruction in-flight state tracked by the out-of-order core.
 */

#ifndef EDE_PIPELINE_INFLIGHT_HH
#define EDE_PIPELINE_INFLIGHT_HH

#include <cstddef>

#include "common/types.hh"
#include "isa/inst.hh"
#include "mem/req.hh"

namespace ede {

/** One dynamic instruction between dispatch and completion. */
struct InflightInst
{
    DynInst di;
    SeqNum seq = kNoSeq;
    std::size_t traceIdx = 0;

    /** @name Dependences resolved at dispatch. */
    /// @{
    SeqNum regDep1 = kNoSeq;   ///< Producer of src1.
    SeqNum regDep2 = kNoSeq;   ///< Producer of src2.
    SeqNum regDepBase = kNoSeq;///< Producer of the address base.
    SeqNum memDep = kNoSeq;    ///< Youngest older overlapping store.
    bool memDepCovers = false; ///< Store fully covers this load.
    SeqNum edeSrc = kNoSeq;    ///< EDM link for EDKuse.
    SeqNum edeSrc2 = kNoSeq;   ///< EDM link for EDKuse2 (JOIN).
    SeqNum dmbBarrier = kNoSeq;///< Latest older DMB ST (stores only).
    /// @}

    /** @name Pipeline state. */
    /// @{
    bool inIq = false;
    /** Every register source has executed.  Set by the issue scan;
     *  never reverts while the entry lives (its producers are older). */
    bool srcsExecuted = false;
    bool issued = false;
    bool executed = false;
    bool completed = false;
    bool mispredicted = false; ///< Prediction differed from outcome.
    bool edeCounted = false;   ///< Holds a WaitCounters slot.
    ReqId loadReq = kNoReq;
    /// @}

    /** @name Timestamps (kNoCycle until reached). */
    /// @{
    Cycle dispatchCycle = kNoCycle;
    Cycle issueCycle = kNoCycle;
    Cycle execCycle = kNoCycle;
    Cycle retireCycle = kNoCycle;
    Cycle completeCycle = kNoCycle;
    /// @}
};

} // namespace ede

#endif // EDE_PIPELINE_INFLIGHT_HH
