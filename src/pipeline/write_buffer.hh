/**
 * @file
 * The post-retirement write buffer.
 *
 * Retired stores and cache-line writebacks wait here until their data
 * can be pushed to the memory system.  Entries may drain out of
 * order, subject to three gates:
 *
 *  1. same-line ordering: an entry must wait for older entries that
 *     touch the same cache line (this is the memory dependence that
 *     orders a store before the DC CVAP that persists it);
 *  2. DMB ST ordering: a store younger than a store barrier must wait
 *     until every store older than the barrier has completed --
 *     writebacks are deliberately *not* covered, which is why the
 *     paper's SU configuration is unsafe;
 *  3. EDE srcID ordering (WB enforcement, Section V-D): an entry that
 *     consumed an execution dependence carries the producer's
 *     sequence number and may not start pushing until the producer
 *     has completed.  JOIN entries carry two srcIDs and complete,
 *     without pushing anything, once both are cleared.
 */

#ifndef EDE_PIPELINE_WRITE_BUFFER_HH
#define EDE_PIPELINE_WRITE_BUFFER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "isa/inst.hh"
#include "mem/mem_system.hh"

namespace ede {

/** One write-buffer entry. */
struct WbEntry
{
    SeqNum seq = kNoSeq;
    std::size_t traceIdx = 0;
    StaticInst si;
    Addr addr = kNoAddr;
    std::uint8_t size = 0;
    std::uint64_t val0 = 0;
    std::uint64_t val1 = 0;
    SeqNum srcId = kNoSeq;      ///< EDE producer gate (WB mode).
    SeqNum srcId2 = kNoSeq;     ///< Second producer gate (JOIN).
    SeqNum dmbBarrier = kNoSeq; ///< Store barrier older than this entry.
    bool edeCounted = false;    ///< Holds a WaitCounters slot.
    bool pushing = false;
    ReqId req = kNoReq;
};

/** Write-buffer statistics. */
struct WriteBufferStats
{
    std::uint64_t inserted = 0;
    std::uint64_t pushes = 0;
    std::uint64_t srcIdGated = 0;   ///< Push attempts blocked by EDE.
    std::uint64_t lineGated = 0;    ///< Blocked by same-line ordering.
    std::uint64_t dmbGated = 0;     ///< Blocked by a store barrier.
    std::uint64_t memRejected = 0;  ///< L1D refused the push.
};

void
visitFields(auto &v, FieldsOf<WriteBufferStats> auto &s)
{
    v("inserted", s.inserted);
    v("pushes", s.pushes);
    v("src_id_gated", s.srcIdGated);
    v("line_gated", s.lineGated);
    v("dmb_gated", s.dmbGated);
    v("mem_rejected", s.memRejected);
}

/** The write buffer with EDE enforcement support. */
class WriteBuffer
{
  public:
    /** Invoked when an entry completes (is visible / persistent). */
    using CompletionFn = std::function<void(const WbEntry &, Cycle)>;

    /**
     * True when some *store* older than the barrier sequence number
     * has not yet completed (provided by the core, which tracks
     * stores in the store queue as well as in this buffer).
     */
    using DmbCheckFn = std::function<bool(SeqNum)>;

    /** @param coreId which private L1 this buffer's pushes target. */
    WriteBuffer(int capacity, int drainPerCycle, std::uint32_t lineBytes,
                MemSystem &mem, CompletionFn on_complete,
                DmbCheckFn dmb_blocked, unsigned coreId = 0);

    /** True when no entry can be inserted. */
    bool full() const { return entries_.size() >= capacity_; }

    /** True when the buffer holds no entries. */
    bool empty() const { return entries_.empty(); }

    /** Current occupancy. */
    std::size_t occupancy() const { return entries_.size(); }

    /** Insert at retirement. @pre !full() */
    void insert(WbEntry entry);

    /** Advance one cycle: complete finished pushes, start new ones. */
    void tick(Cycle now);

    /**
     * A dependence producer completed somewhere in the machine: clear
     * matching srcID tags (the paper's CAM-clear on push completion;
     * generalized so producers that never enter the buffer, e.g.
     * loads, also release their consumers).
     */
    void onProducerComplete(SeqNum producer);

    /**
     * Youngest entry overlapping [addr, addr+size), for load
     * dependence checks.  @return its seq and whether it fully covers
     * the range (kNoSeq when none).
     */
    std::pair<SeqNum, bool> youngestOverlap(Addr addr,
                                            std::uint8_t size) const;

    /**
     * Skip-ahead hint: @p now when some entry is ready to act next
     * tick (a push-eligible entry, or a JOIN with both tags cleared);
     * kNoCycle otherwise.  Every gate in this buffer clears through
     * an instruction completing -- core progress that ends any skip
     * window by itself -- so a gated buffer advertises no intrinsic
     * event; the gating stall counters of the cycles skipped over are
     * replayed by the core (see OoOCore::run).
     */
    Cycle nextEventCycle(Cycle now) const;

    const WriteBufferStats &stats() const { return stats_; }

    /**
     * Skip-ahead stat replay: account the gating stalls the buffer
     * would have counted on each of the skipped dead cycles.  The
     * core measures one dead tick's deltas and multiplies (the buffer
     * is untouched across the window, so every skipped tick would
     * have counted exactly the same stalls).
     */
    void
    replayGateStalls(std::uint64_t src_id, std::uint64_t line,
                     std::uint64_t dmb)
    {
        stats_.srcIdGated += src_id;
        stats_.lineGated += line;
        stats_.dmbGated += dmb;
    }

    /** Oldest-first contents (watchdog diagnostics). */
    const std::vector<WbEntry> &entries() const { return entries_; }

    /**
     * Append the sequence numbers of the older entries that currently
     * block @p seq's push -- its same-line predecessors (the stall
     * analyzer walks them like any other ordering edge).  @return
     * false when @p seq is not in the buffer.
     */
    bool appendLineBlockers(SeqNum seq,
                            std::vector<SeqNum> &out) const;

    /**
     * Degrade-to-fence recovery: drop the srcID tags of @p seq so the
     * entry pushes as soon as its memory-ordering gates allow.
     * @return true when a tag was actually cleared.
     */
    bool clearEdeGates(SeqNum seq);

  private:
    Addr lineOf(Addr a) const { return a & ~static_cast<Addr>(lineBytes_ - 1); }
    bool lineConflictBefore(std::size_t idx) const;
    void completeEntry(std::size_t idx, Cycle now);

    std::size_t capacity_;
    int drainPerCycle_;
    std::uint32_t lineBytes_;
    MemSystem &mem_;
    CompletionFn onComplete_;
    DmbCheckFn dmbBlocked_;
    unsigned coreId_ = 0;
    /**
     * Oldest first.  Contiguous and reserved to capacity: the buffer
     * holds a handful of entries, so erasing from the middle is a
     * short move, and every per-tick scan indexes plain memory.
     */
    std::vector<WbEntry> entries_;
    WriteBufferStats stats_;
};

} // namespace ede

#endif // EDE_PIPELINE_WRITE_BUFFER_HH
