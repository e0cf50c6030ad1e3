/**
 * @file
 * The persist-ordering partial order of one simulated run.
 *
 * The WPQ/ADR model guarantees much less than "persists become
 * durable in accept order": an accepted line may still be pending
 * when power fails, and the drain that follows saves an arbitrary
 * subset of the pending lines.  What IS guaranteed -- and therefore
 * what a crash-consistency checker may rely on -- is exactly the set
 * of constraints the program and the device enforce:
 *
 *  - same-media-line accept chains: the NVM buffers one slot per
 *    256 B internal line, so successive accepts of one line coalesce
 *    and reach the media as one ordered stream -- a younger update of
 *    a line can never be durable without the older ones;
 *
 *  - EDK edges: a DC CVAP consuming key k completes only after the
 *    persists producing k, so its persist event is ordered behind
 *    theirs (the Section IV dependence the paper adds);
 *
 *  - key-chain edges: successive CVAP definitions of one key are
 *    usually pushed and accepted in program order, chaining a
 *    consumer of the newest definition behind the older ones.  This
 *    is a heuristic, not a guarantee: hot-line coalescing can invert
 *    the accepts of two definitions, in which case the chain edge is
 *    dropped (stats.nonmonotone) because no stall sequenced them;
 *
 *  - residual fences: DSB SY orders every prior CVAP persist before
 *    anything younger; WAIT_KEY / WAIT_ALL_KEYS order EVERY
 *    still-tracked CVAP naming the key the same way -- the WAIT
 *    counter file counts all of them, not just the newest
 *    definition, so these edges must not rely on key-chain
 *    transitivity.  DMB ST contributes NOTHING here -- it does not
 *    order DC CVAP (Section II-A), which is precisely the SU
 *    configuration's hole;
 *
 *  - line gates: a store ordered behind producers (an EDK use
 *    operand, or issue after a barrier/wait) carries that ordering
 *    onto every later persist of its cache line -- including dirty
 *    evictions, which have no ordering of their own.  The gate
 *    applies only to persist events accepted at or after the store's
 *    completion: an earlier eviction of the line does not yet contain
 *    the store's data and is genuinely unordered.
 *
 * Every guaranteed edge points backward in accept order by
 * construction of the pipeline (consumers stall until producers
 * complete, which is after the producer's accept).  An edge that
 * would point forward is dropped and counted in stats.nonmonotone:
 * only the heuristic key-chain edges can legitimately do so (accept
 * inversion under hot-line coalescing, seen on the WB pipeline at
 * deeper workloads); the tests assert zero for the micro lattice
 * gates, where accepts stay in program order.
 *
 * One walk serves any number of cores.  Each core's trace is walked
 * against that core's private EDM/key state -- per-core key files
 * mean a use operand can only name a local producer -- and two
 * families of constraints join the cores into one lattice:
 *
 *  - cross-core WAIT edges: the WAIT counter file spans the
 *    coherence point (core/cross_core.hh), so WAIT_KEY(k) on core c
 *    also drains every *remote* in-flight CVAP naming k.  The walk
 *    joins the waiter's barrier roots with every remote CVAP event
 *    whose instruction completed no later than the WAIT itself --
 *    exactly the set the counters could have tracked;
 *
 *  - same-line coherence edges: the same-media-line chain above is
 *    global.  Two cores' persists of one line meet at the shared L2
 *    (dirty handoff) and the NVM buffer coalesces them into one
 *    ordered media stream, so the chain is sound across cores;
 *    line gates likewise follow the line to whichever core persists
 *    it.  Cross-core links are tallied separately (crossLine).
 *
 * A one-core run builds none of the cross-core state.  Every durable
 * set of a multi-core crash is an ideal of the joint lattice, which
 * is what lets one enumerator, torn-event machinery and shrinker
 * serve every core count.
 */

#ifndef EDE_FAULT_MODEL_CHECK_PERSIST_ORDER_HH
#define EDE_FAULT_MODEL_CHECK_PERSIST_ORDER_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/system.hh"
#include "trace/trace.hh"

namespace ede {

/** "No event" sentinel for event-index fields. */
inline constexpr std::size_t kNoEvent = static_cast<std::size_t>(-1);

/** One persist event as a node of the partial order. */
struct PersistNode
{
    Addr addr = kNoAddr;          ///< 64 B aligned event address.
    std::uint32_t size = 0;       ///< Event payload size (bytes).
    Cycle accept = kNoCycle;      ///< WPQ accept cycle.
    TraceIndex origin = kNoOrigin;///< Originating instruction, if any.

    /**
     * Cycle the first media write of this event's 256 B line
     * completed after the accept; kNoCycle when the line never
     * reached the media before the run ended.  A crash at cycle
     * c >= mediaCycle cannot drop this event.
     */
    Cycle mediaCycle = kNoCycle;

    /** Accepted during pool setup: durable in every crash state. */
    bool preSetup = false;

    /** Immediate predecessors (earlier event indices), sorted unique. */
    std::vector<std::size_t> preds;

    /**
     * The post-setup subset of preds, precomputed because the DFS
     * tests it on every include decision and setup events (which can
     * dominate preds through barrier roots) are always included.
     */
    std::vector<std::size_t> postSetupPreds;
};

/** Per-edge-kind tallies (diagnostics and the JSON artifact). */
struct PersistOrderStats
{
    std::uint64_t sameLine = 0;   ///< 256 B media-line accept chains.
    std::uint64_t edk = 0;        ///< Direct EDK use edges.
    std::uint64_t keyChain = 0;   ///< Same-key CVAP definition chains.
    std::uint64_t fence = 0;      ///< DSB SY / WAIT_* barrier roots.
    std::uint64_t lineGate = 0;   ///< Gated-store line edges.
    std::uint64_t nonmonotone = 0;///< Dropped forward edges (expect 0).

    /**
     * @name Cross-core edges (zero on one core).
     *
     * crossWait: a WAIT/fence-rooted edge whose producer persisted on
     * a different core than the consumer -- the cross-core WAIT
     * counters of core/cross_core.hh made the waiter stall on the
     * remote persist.  crossLine: a same-media-line or line-gate edge
     * joining persists of two different cores -- the shared-L2 dirty
     * handoff carried the line across the coherence point and the NVM
     * buffer chained the accepts.
     */
    /// @{
    std::uint64_t crossWait = 0;
    std::uint64_t crossLine = 0;
    /// @}

    std::uint64_t total() const
    {
        return sameLine + edk + keyChain + fence + lineGate +
               crossWait + crossLine;
    }
};

void
visitFields(auto &v, FieldsOf<PersistOrderStats> auto &s)
{
    v("same_line", s.sameLine);
    v("edk", s.edk);
    v("key_chain", s.keyChain);
    v("fence", s.fence);
    v("line_gate", s.lineGate);
    v("nonmonotone", s.nonmonotone);
    v("cross_wait", s.crossWait);
    v("cross_line", s.crossLine);
}

/** The assembled partial order over one run's persist events. */
struct PersistOrderGraph
{
    std::vector<PersistNode> nodes;  ///< In accept order.
    PersistOrderStats stats;
    std::uint32_t lineBytes = 256;   ///< NVM media line size.
    std::size_t preSetupCount = 0;   ///< nodes[0..preSetupCount) forced.

    /**
     * minSucc[i]: smallest j with i in preds(j), nodes.size() when no
     * successor.  Lets "is i maximal within the durable prefix
     * [0, cut)" be answered as minSucc[i] >= cut in O(1) -- the
     * frontier test the generalized torn-persist selection uses.
     */
    std::vector<std::size_t> minSucc;

    /** 256 B media line of @p a. */
    Addr
    mediaLine(Addr a) const
    {
        return a & ~static_cast<Addr>(lineBytes - 1);
    }

    /**
     * Normalize hand- or builder-assembled edges: sort and dedup each
     * pred list, drop (and count) edges that do not point backward in
     * accept order, then derive preSetupCount, postSetupPreds and
     * minSucc.  Must be called before the graph is enumerated.
     */
    void finalize();
};

/**
 * Derive the partial order of one run on any number of cores.
 *
 * @param traces            the executed traces, index == core
 * @param events            System::persistEvents() (global accept
 *                          order; .core binds each event to its core)
 * @param mediaWrites       System::mediaWriteEvents()
 * @param completionCycles  per-core completion cycles, index == core
 *                          (System::completionCycles(i), recording on)
 * @param setupCompleteCycle first cycle with the pool fully durable:
 *                          events accepted before it are forced into
 *                          every crash state (0: none are)
 * @param lineBytes         NVM media line size
 */
PersistOrderGraph
buildJointPersistOrder(std::span<const Trace> traces,
                       const std::vector<PersistEvent> &events,
                       const std::vector<MediaWriteEvent> &mediaWrites,
                       std::span<const std::vector<Cycle>> completionCycles,
                       Cycle setupCompleteCycle, std::uint32_t lineBytes);

} // namespace ede

#endif // EDE_FAULT_MODEL_CHECK_PERSIST_ORDER_HH
