/**
 * @file
 * Set-associative write-back cache timing model.
 *
 * Tags-only (functional data lives in MemoryImage).  Each cache is a
 * MemSink for the level above and forwards misses to the MemSink
 * below.  Misses allocate MSHRs (finite; full MSHRs exert
 * backpressure), fills install lines with LRU replacement, and dirty
 * victims generate Writeback requests to the level below.
 *
 * Clean requests (DC CVAP) clear the local dirty bit and always
 * propagate to the point of persistence; their response (persist
 * acknowledgement) flows straight back up the chain.
 */

#ifndef EDE_MEM_CACHE_HH
#define EDE_MEM_CACHE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "mem/req.hh"

namespace ede {

/** Downstream interface implemented by caches and the controller. */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /**
     * Offer a request; @return false when the component cannot accept
     * it this cycle (queue or MSHRs full) and the caller must retry.
     */
    virtual bool tryAccept(const MemReq &req, Cycle now) = 0;
};

/** Upward response callback. */
using RespFn = std::function<void(const MemResp &, Cycle)>;

/** Static cache parameters. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 64;
    Cycle latency = 1;          ///< Hit latency in cycles.
    std::uint32_t ports = 2;    ///< Requests processed per cycle.
    std::uint32_t mshrs = 8;    ///< Outstanding line fills.
    std::uint32_t inputQueue = 16;
};

/** The name is a label, not an input: it is not a field. */
void
visitFields(auto &v, FieldsOf<CacheParams> auto &p)
{
    v("size_bytes", p.sizeBytes);
    v("assoc", p.assoc);
    v("line_bytes", p.lineBytes);
    v("latency", p.latency);
    v("ports", p.ports);
    v("mshrs", p.mshrs);
    v("input_queue", p.inputQueue);
}

/** Occupancy and outcome counters for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t cleansForwarded = 0;
    std::uint64_t rejects = 0;
    std::uint64_t snoopInvalidations = 0;  ///< Lines killed by peers.
    std::uint64_t snoopDowngrades = 0;     ///< Dirty lines cleaned by peers.
};

void
visitFields(auto &v, FieldsOf<CacheStats> auto &s)
{
    v("hits", s.hits);
    v("misses", s.misses);
    v("mshr_merges", s.mshrMerges);
    v("evictions", s.evictions);
    v("writebacks", s.writebacks);
    v("cleans_forwarded", s.cleansForwarded);
    v("rejects", s.rejects);
    v("snoop_invalidations", s.snoopInvalidations);
    v("snoop_downgrades", s.snoopDowngrades);
}

/** What a coherence snoop found in a peer cache. */
enum class SnoopResult
{
    Miss,   ///< The line was not present.
    Clean,  ///< Present and clean; invalidated/unchanged as requested.
    Dirty,  ///< Present and dirty; the owner must absorb the data.
};

/** One level of the hierarchy. */
class Cache : public MemSink
{
  public:
    /**
     * @param params static geometry/latency parameters
     * @param below  next level (cache or memory controller)
     */
    Cache(CacheParams params, MemSink *below);

    /** Install the callback receiving this cache's upward responses. */
    void setRespFn(RespFn fn) { respond_ = std::move(fn); }

    /** Deliver a response from the level below. */
    void handleResp(const MemResp &resp, Cycle now);

    /** Advance one cycle. */
    void tick(Cycle now);

    bool tryAccept(const MemReq &req, Cycle now) override;

    /** True when no request is in flight anywhere in this cache. */
    bool idle() const;

    /**
     * Skip-ahead hint: the earliest cycle >= @p now at which tick()
     * might change any state (deliver a response, retry a refused
     * request, process queued input).  kNoCycle when this cache is
     * guaranteed inert until new work arrives from outside.  Hints
     * may be conservatively early, never late (DESIGN.md section 10).
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Statistics. */
    const CacheStats &stats() const { return stats_; }

    /**
     * Functional warmup: install the line without generating any
     * traffic (clean by default).  A present line only gains, never
     * loses, its dirty bit.  Used for pre-run pool initialization and
     * by the coherence point to absorb a snooped-out dirty copy.
     */
    void preload(Addr addr, Cycle now = 0, bool dirty = false);

    /**
     * @name Coherence snoops (MESI-ish, at the shared-cache boundary).
     *
     * Instantaneous tag-side operations MemSystem applies to *peer*
     * L1s when a request from another core enters the coherence
     * point.  They never generate traffic themselves; when a dirty
     * copy is found (SnoopResult::Dirty) the caller is responsible
     * for making the data's home level dirty (the modelled
     * cache-to-cache transfer).  Lines still being filled (MSHR in
     * flight) are untouched: the snoop is observed at input-queue
     * entry, before the fill completes -- a documented simplification
     * of a real transient-state protocol.
     */
    /// @{
    /** A peer write: drop the line entirely (M/E/S -> I). */
    SnoopResult snoopInvalidate(Addr addr);

    /** A peer read/clean: keep the line but clear dirty (M/E -> S). */
    SnoopResult snoopDowngrade(Addr addr);
    /// @}

    /** Tag lookup (tests): true when the line is cached. */
    bool probe(Addr addr) const;

    /** Tag lookup (tests): true when the line is cached dirty. */
    bool probeDirty(Addr addr) const;

    /** Static parameters. */
    const CacheParams &params() const { return params_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        Cycle lastUse = 0;
    };

    struct Mshr
    {
        bool valid = false;
        bool fillSent = false;
        Addr lineAddr = 0;
        std::vector<MemReq> waiters;
    };

    struct PendingResp
    {
        Cycle due;
        MemResp resp;
        bool operator>(const PendingResp &o) const { return due > o.due; }
    };

    Addr lineAddr(Addr a) const { return a & ~static_cast<Addr>(mask_); }
    std::size_t setIndex(Addr line_addr) const;

    Line *lookup(Addr addr);
    const Line *lookup(Addr addr) const;
    void processRequest(const MemReq &req, Cycle now);
    void installLine(Addr line_addr, bool dirty, Cycle now);
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr(Addr line_addr);
    std::size_t freeMshrCount() const;
    void scheduleResp(const MemResp &resp, Cycle due);
    void sendBelowOrRetry(const MemReq &req, Cycle now);

    CacheParams params_;
    MemSink *below_;
    RespFn respond_;

    std::uint32_t mask_;
    std::size_t numSets_;
    std::vector<Line> lines_;   ///< numSets x assoc, row-major.

    std::deque<MemReq> inputQ_;
    std::deque<MemReq> retryQ_; ///< Requests below_ refused to accept.
    std::vector<Mshr> mshrs_;
    std::priority_queue<PendingResp, std::vector<PendingResp>,
                        std::greater<PendingResp>> respQ_;
    std::uint64_t inFlightCleans_ = 0;

    CacheStats stats_;
};

} // namespace ede

#endif // EDE_MEM_CACHE_HH
