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

    /**
     * Skip-ahead hint: the earliest cycle >= @p now at which
     * tryAccept(@p req) can succeed if nothing else reaches this sink
     * first.  The default, @p now, keeps a refused caller retrying
     * every cycle.  A sink that answers later promises that each
     * attempt before that cycle would be refused the same way, and
     * must replay those refusals in replayRefused() (DESIGN.md
     * section 10).
     */
    virtual Cycle
    acceptCycle(const MemReq &req, Cycle now) const
    {
        (void)req;
        return now;
    }

    /**
     * Count @p n refusals of @p req that skipped cycles would have
     * made.  Only a sink whose acceptCycle() can lie past now is ever
     * asked; the default panics.
     */
    virtual void replayRefused(const MemReq &req, std::uint64_t n);
};

/** Upward response callback. */
using RespFn = std::function<void(const MemResp &, Cycle)>;

/**
 * FIFO of requests over a power-of-two ring that doubles when full,
 * so a steady queue allocates nothing.
 */
class ReqRing
{
  public:
    /** @param capacity slots to allocate up front (rounded up). */
    explicit ReqRing(std::size_t capacity = 0);

    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }
    const MemReq &front() const { return buf_[head_ & mask_]; }
    void pop_front() { ++head_; }

    void
    push_back(const MemReq &req)
    {
        if (size() == buf_.size())
            grow(buf_.size() * 2);
        buf_[tail_++ & mask_] = req;
    }

  private:
    void grow(std::size_t capacity);

    std::vector<MemReq> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;  ///< Pops so far; front at head_ & mask_.
    std::size_t tail_ = 0;  ///< Pushes so far.
};

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

    /**
     * True when tick(@p now) would act: input or a retry is queued,
     * or a response is due by @p now.  Otherwise the tick is a no-op
     * and MemSystem::tick passes the cache over.
     */
    bool
    hasWork(Cycle now) const
    {
        return !inputQ_.empty() || !retryQ_.empty() ||
               (!respQ_.empty() && respQ_.top().due <= now);
    }

    bool tryAccept(const MemReq &req, Cycle now) override;

    /** True when no request is in flight anywhere in this cache. */
    bool idle() const;

    /**
     * Replay @p n skipped cycles: each would have retried the head of
     * the retry queue and been refused (see MemSink::acceptCycle).
     */
    void replaySkipped(std::uint64_t n);

    /**
     * Skip-ahead hint: the earliest cycle >= @p now at which tick()
     * might change any state (deliver a response, retry a refused
     * request the level below may accept, process queued input).
     * kNoCycle when this cache is guaranteed inert until new work
     * arrives from outside.  Hints may be conservatively early, never
     * late (DESIGN.md section 10).
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
    /** Replacement state of one way; its tag lives in tags_. */
    struct Line
    {
        bool dirty = false;
        Cycle lastUse = 0;
    };

    /** lookup()'s answer for an absent line. */
    static constexpr std::size_t kNoWay = static_cast<std::size_t>(-1);

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

    /** First way of @p line_addr's set in tags_ and lines_. */
    std::size_t
    setBase(Addr line_addr) const
    {
        const Addr block = line_addr >> lineShift_;
        return (pow2Sets_ ? block & (numSets_ - 1) : block % numSets_) *
               params_.assoc;
    }

    /** The way holding @p addr's line, or kNoWay. */
    std::size_t lookup(Addr addr) const;
    void processRequest(const MemReq &req, std::size_t way, Cycle now);
    void installLine(Addr line_addr, bool dirty, Cycle now);
    Mshr *findMshr(Addr line_addr);
    Mshr *allocMshr(Addr line_addr);
    void scheduleResp(const MemResp &resp, Cycle due);
    void sendBelowOrRetry(const MemReq &req, Cycle now);

    CacheParams params_;
    MemSink *below_;
    RespFn respond_;

    std::uint32_t mask_;
    unsigned lineShift_;        ///< log2(lineBytes).
    std::size_t numSets_;
    bool pow2Sets_;             ///< Index by mask, else by modulo.
    /** Line address per way (kNoAddr = invalid), numSets x assoc. */
    std::vector<Addr> tags_;
    std::vector<Line> lines_;   ///< Parallel to tags_.

    ReqRing inputQ_;
    ReqRing retryQ_;            ///< Requests below_ refused to accept.
    std::vector<Mshr> mshrs_;
    std::size_t freeMshrs_;     ///< Invalid entries of mshrs_.
    std::priority_queue<PendingResp, std::vector<PendingResp>,
                        std::greater<PendingResp>> respQ_;
    std::uint64_t inFlightCleans_ = 0;

    CacheStats stats_;
};

} // namespace ede

#endif // EDE_MEM_CACHE_HH
