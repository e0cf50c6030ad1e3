/**
 * @file
 * Core-facing memory hierarchy: per-core private L1Ds -> shared
 * L2 -> L3 -> controller.
 *
 * Each pipeline issues loads, store drains and cleans here and polls
 * for completion by request id.  Instruction fetch is modelled as
 * always hitting (the evaluated kernels fit comfortably in the 32 KB
 * L1I), which matches the data-bound behaviour of the paper's
 * workloads; the L1I parameters remain in the Table I printout for
 * completeness.
 *
 * With more than one core the L2 is the coherence point: every
 * request entering it from core i snoops the other cores' private
 * L1s MESI-style (writes invalidate peer copies, reads and cleans
 * downgrade them), and a snooped-out dirty copy is absorbed into the
 * L2 as the modelled cache-to-cache transfer.  Snoops act on the tag
 * arrays instantaneously at send time -- transient protocol states
 * are deliberately not modelled.  A single-core hierarchy never
 * executes any snoop code and is cycle-identical to the historical
 * one-L1 layout.
 */

#ifndef EDE_MEM_MEM_SYSTEM_HH
#define EDE_MEM_MEM_SYSTEM_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "mem/controller.hh"

namespace ede {

/** Aggregate parameters for the whole hierarchy (Table I defaults). */
struct MemSystemParams
{
    CacheParams l1d{"l1d", 48 * 1024, 3, 64, 1, 2, 8, 16};
    CacheParams l2{"l2", 256 * 1024, 16, 64, 12, 1, 16, 16};
    CacheParams l3{"l3", 1024 * 1024, 16, 64, 20, 1, 16, 16};
    DramParams dram{};
    NvmParams nvm{};
    AddrMap map{};
};

void
visitFields(auto &v, FieldsOf<MemSystemParams> auto &p)
{
    v("l1d", p.l1d);
    v("l2", p.l2);
    v("l3", p.l3);
    v("dram", p.dram);
    v("nvm", p.nvm);
    v("map", p.map);
}

/** Coherence-point counters (all zero on a single-core hierarchy). */
struct CoherenceStats
{
    std::uint64_t snoops = 0;             ///< Requests that snooped peers.
    std::uint64_t invalidations = 0;      ///< Peer lines dropped.
    std::uint64_t downgrades = 0;         ///< Peer dirty bits cleared.
    std::uint64_t dirtyHandoffs = 0;      ///< Dirty copies absorbed by L2.
};

void
visitFields(auto &v, FieldsOf<CoherenceStats> auto &s)
{
    v("snoops", s.snoops);
    v("invalidations", s.invalidations);
    v("downgrades", s.downgrades);
    v("dirty_handoffs", s.dirtyHandoffs);
}

/** The assembled hierarchy. */
class MemSystem
{
  public:
    /** @param coreCount number of private L1Ds above the shared L2. */
    explicit MemSystem(MemSystemParams params = {},
                       unsigned coreCount = 1);

    /** @name Core request interface.
     *  Each returns the request id, or std::nullopt when the issuing
     *  core's L1D cannot accept this cycle (backpressure; retry
     *  later).
     */
    /// @{
    std::optional<ReqId> sendLoad(Addr addr, std::uint8_t size, Cycle now,
                                  unsigned core = 0);
    std::optional<ReqId> sendStore(Addr addr, std::uint8_t size, Cycle now,
                                   TraceIndex origin = kNoOrigin,
                                   unsigned core = 0);
    std::optional<ReqId> sendClean(Addr addr, Cycle now,
                                   TraceIndex origin = kNoOrigin,
                                   unsigned core = 0);
    /// @}

    /** Consume a completion: true exactly once per finished request. */
    bool consumeDone(ReqId id);

    /** True when a request of core @p core finished unconsumed. */
    bool hasDone(unsigned core) const { return pendingDone_[core] != 0; }

    /**
     * Functional warmup: make @p addr's line resident (clean) in the
     * hierarchy down to @p level (1 = L1D..L3).  Level 1 warms every
     * core's private L1.  Pre-run use only.
     */
    void warmLine(Addr addr, int level);

    /** Advance one cycle. */
    void tick(Cycle now);

    /** True when every component is drained. */
    bool idle() const;

    /**
     * Skip-ahead hint: earliest cycle >= @p now at which any level of
     * the hierarchy might change state.  kNoCycle when the whole
     * hierarchy is inert until a core sends a new request.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Replay @p n skipped cycles: every cache retry whose sink deferred
     * it (MemSink::acceptCycle) counts its refusals there.  Call once
     * per jump of the whole machine.
     */
    void replaySkipped(std::uint64_t n);

    /** @name Component access (stats, hooks, tests). */
    /// @{
    Cache &l1d(unsigned core = 0) { return *l1ds_.at(core); }
    Cache &l2() { return *l2_; }
    Cache &l3() { return *l3_; }
    const Cache &l1d(unsigned core = 0) const { return *l1ds_.at(core); }
    const Cache &l2() const { return *l2_; }
    const Cache &l3() const { return *l3_; }
    MemController &controller() { return *ctrl_; }
    const MemController &controller() const { return *ctrl_; }
    const MemSystemParams &params() const { return params_; }
    unsigned coreCount() const
    {
        return static_cast<unsigned>(l1ds_.size());
    }
    const CoherenceStats &coherenceStats() const { return coherence_; }
    /// @}

  private:
    std::optional<ReqId> send(ReqKind kind, Addr addr, std::uint8_t size,
                              Cycle now, TraceIndex origin, unsigned core);

    /** MESI-ish snoop of every peer L1 when @p req enters core i's. */
    void snoopPeers(const MemReq &req, Cycle now);

    MemSystemParams params_;
    std::unique_ptr<MemController> ctrl_;
    std::unique_ptr<Cache> l3_;
    std::unique_ptr<Cache> l2_;
    std::vector<std::unique_ptr<Cache>> l1ds_;  ///< One per core.
    /** Unconsumed completions: request id -> issuing core. */
    std::unordered_map<ReqId, unsigned> done_;
    std::vector<std::size_t> pendingDone_;  ///< done_ entries per core.
    ReqId nextId_ = 1;
    CoherenceStats coherence_;
};

} // namespace ede

#endif // EDE_MEM_MEM_SYSTEM_HH
