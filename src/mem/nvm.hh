/**
 * @file
 * NVM device model: asymmetric read/write latency, 256-byte internal
 * lines, and a persistent 128-slot on-DIMM write buffer.
 *
 * Matching Section VI-A of the paper: writes (cache evictions and DC
 * CVAP cleans) are accepted into the persistent buffer, where they may
 * coalesce with pending writes to the same 256 B internal line; a
 * small number of media writers drain the buffer at the 500 ns write
 * latency.  Because the buffer sits inside the ADR persistence
 * domain, a Clean *completes* (is persistent) as soon as its line is
 * accepted into the buffer.
 *
 * Every time a write reaches the media, the current buffer occupancy
 * is sampled -- this is exactly the Fig. 10 distribution.
 */

#ifndef EDE_MEM_NVM_HH
#define EDE_MEM_NVM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/fields.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/req.hh"

namespace ede {

/** NVM timing/geometry parameters (Table I defaults). */
struct NvmParams
{
    Cycle readLatency = 450;     ///< 150 ns at 3 GHz.
    Cycle writeLatency = 1500;   ///< 500 ns at 3 GHz.
    Cycle bufferAccept = 60;     ///< WPQ accept round trip (~20 ns).
    Cycle bufferReadHit = 60;    ///< Read served from a pending write.
    std::uint32_t lineBytes = 256;
    std::uint32_t bufferSlots = 128;

    /**
     * Concurrent media write streams drained from the buffer:
     * 5 x 256 B / 500 ns = ~2.6 GB/s sustained write bandwidth, in
     * line with a 3D-XPoint-class DIMM.  Under the unsafe
     * configuration the kernels' persist rate exceeds this, keeping
     * the 128-slot buffer full (Fig. 10).
     */
    std::uint32_t mediaWriters = 5;
    std::uint32_t mediaReaders = 4;  ///< Concurrent media read ports.
    std::uint32_t readQueueDepth = 16;
};

void
visitFields(auto &v, FieldsOf<NvmParams> auto &p)
{
    v("read_latency", p.readLatency);
    v("write_latency", p.writeLatency);
    v("buffer_accept", p.bufferAccept);
    v("buffer_read_hit", p.bufferReadHit);
    v("line_bytes", p.lineBytes);
    v("buffer_slots", p.bufferSlots);
    v("media_writers", p.mediaWriters);
    v("media_readers", p.mediaReaders);
    v("read_queue_depth", p.readQueueDepth);
}

/** NVM counters. */
struct NvmStats
{
    std::uint64_t reads = 0;
    std::uint64_t bufferReadHits = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t writesCoalesced = 0;
    std::uint64_t mediaWrites = 0;
    std::uint64_t cleansAccepted = 0;
    std::uint64_t bufferFullRejects = 0;
    std::uint64_t transientRejects = 0; ///< Fault-injected accept fails.
};

void
visitFields(auto &v, FieldsOf<NvmStats> auto &s)
{
    v("reads", s.reads);
    v("buffer_read_hits", s.bufferReadHits);
    v("writes_accepted", s.writesAccepted);
    v("writes_coalesced", s.writesCoalesced);
    v("media_writes", s.mediaWrites);
    v("cleans_accepted", s.cleansAccepted);
    v("buffer_full_rejects", s.bufferFullRejects);
    v("transient_rejects", s.transientRejects);
}

/**
 * Hook invoked when a write/clean enters the persistence domain
 * (i.e. the persistent buffer): (cache-line address, size, cycle,
 * originating trace index or kNoOrigin for cache-generated traffic,
 * originating core).  The origin lets the fault model-checker tie
 * persist events back to the DC CVAP / store instructions whose EDK
 * and fence constraints order them; the core index is only meaningful
 * when the origin is real (evictions aggregate stores from many
 * instructions and report core 0).
 */
using PersistHook =
    std::function<void(Addr, std::uint32_t, Cycle, TraceIndex, unsigned)>;

/**
 * Hook invoked when a buffered line finishes its media write:
 * (256 B media-line address, cycle).  Lines that reached the media
 * are durable even under a failed power-down drain, so the fault
 * campaign uses these events to split "on media" from "still in the
 * WPQ" when it reconstructs adversarial crash images.
 */
using MediaWriteHook = std::function<void(Addr, Cycle)>;

/**
 * Fault-injection hook consulted before a write/clean is accepted:
 * return true to reject this attempt (a transient accept failure;
 * the controller retries with backoff).  Installed by the fault
 * campaign; must eventually return false for every line so the
 * simulation keeps making progress.
 */
using AcceptFaultHook = std::function<bool(const MemReq &, Cycle)>;

/** NVM DIMM with persistent write buffering. */
class NvmDevice
{
  public:
    explicit NvmDevice(NvmParams params = {});

    /** Offer a request; false when buffers/queues are full. */
    bool tryAccept(const MemReq &req, Cycle now);

    /** Advance one cycle; completed reads/cleans are pushed to @p out. */
    void tick(Cycle now, std::vector<MemResp> &out);

    /** True when nothing is pending (buffer drained). */
    bool idle() const;

    /**
     * Skip-ahead hint: earliest cycle >= @p now at which tick() might
     * deliver a completion, serve a queued read, or finish/launch a
     * media write.  kNoCycle when fully drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Earliest cycle >= @p now at which tryAccept(@p req) can succeed
     * if no other request arrives first: the next media-write
     * completion while refusesUntilDone(@p req), else @p now.
     */
    Cycle acceptCycle(const MemReq &req, Cycle now) const;

    /**
     * Count @p n buffer-full refusals of @p req that skipped cycles
     * would have made; asserts the buffer still refuses it.
     */
    void replayRefused(const MemReq &req, std::uint64_t n);

    /** Current number of pending writes in the on-DIMM buffer. */
    std::size_t bufferOccupancy() const { return slots_.size(); }

    /** Fig. 10 distribution: occupancy sampled at each media write. */
    const Distribution &occupancyDist() const { return occupancy_; }

    /**
     * Mean sampled WPQ occupancy in permille of bufferSlots -- the
     * congestion half of the traffic layer's backpressure signal.
     * Integer arithmetic (0 with no samples) so downstream admission
     * decisions are bit-stable.
     */
    std::uint64_t
    meanOccupancyPermille() const
    {
        const std::uint64_t samples = occupancy_.totalSamples();
        if (!samples || !params_.bufferSlots)
            return 0;
        return occupancy_.sampleSum() * 1000 /
               (samples * params_.bufferSlots);
    }

    /**
     * Accept rejections (buffer-full + fault-injected transient) in
     * permille of all accept attempts -- the reject half of the
     * backpressure signal.
     */
    std::uint64_t
    rejectPermille() const
    {
        const std::uint64_t rejects =
            stats_.bufferFullRejects + stats_.transientRejects;
        const std::uint64_t attempts = stats_.writesAccepted +
                                       stats_.cleansAccepted + rejects;
        return attempts ? rejects * 1000 / attempts : 0;
    }

    /** Install the persistence-domain entry hook. */
    void setPersistHook(PersistHook hook) { persistHook_ = std::move(hook); }

    /** Install the media-write completion hook. */
    void
    setMediaWriteHook(MediaWriteHook hook)
    {
        mediaWriteHook_ = std::move(hook);
    }

    /** Install (or clear) the transient accept-failure injector. */
    void
    setAcceptFaultHook(AcceptFaultHook hook)
    {
        acceptFault_ = std::move(hook);
    }

    /** True when the latest tryAccept rejection was fault-injected. */
    bool lastRejectTransient() const { return lastRejectTransient_; }

    const NvmStats &stats() const { return stats_; }

    const NvmParams &params() const { return params_; }

  private:
    struct Slot
    {
        Addr lineAddr = 0;        ///< 256 B aligned media line.
        Cycle enqueued = 0;
        bool writing = false;
        Cycle writeDone = 0;
    };

    struct Pending
    {
        Cycle due;
        MemResp resp;
        bool operator>(const Pending &o) const { return due > o.due; }
    };

    Addr mediaLine(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.lineBytes - 1);
    }

    const Slot *findSlot(Addr line_addr) const;
    Slot *
    findSlot(Addr line_addr)
    {
        return const_cast<Slot *>(std::as_const(*this).findSlot(line_addr));
    }
    bool acceptWrite(const MemReq &req, Cycle now, bool is_clean);

    /**
     * True when every tryAccept(@p req) before nextDone_ is refused
     * for a full buffer and changes nothing but bufferFullRejects.
     */
    bool refusesUntilDone(const MemReq &req) const;

    /** Recompute nextDone_ from the writing slots. */
    void rescanNextDone();

    /**
     * lineFilter_ bucket of media line @p line_addr: a Fibonacci hash
     * of the line number, so power-of-two strides (per-core arenas,
     * stream regions) spread over the table instead of colliding.
     */
    std::size_t
    filterBucket(Addr line_addr) const
    {
        const std::uint64_t h =
            (line_addr >> lineShift_) * 0x9e3779b97f4a7c15ull;
        return h >> (64 - kLineFilterBits);
    }

    std::uint32_t &
    filterCount(Addr line_addr)
    {
        return lineFilter_[filterBucket(line_addr)];
    }

    NvmParams params_;
    std::vector<Slot> slots_;            ///< Pending buffer entries.
    std::deque<MemReq> readQ_;
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> completions_;
    std::vector<Cycle> readPortFree_;    ///< Per-port busy-until.
    Distribution occupancy_;
    int lineShift_;                      ///< log2(lineBytes).
    /**
     * Slots with writing set, and the earliest writeDone among them
     * (kNoCycle when none): tick() scans for finished media writes
     * only once now reaches nextDone_, and searches for a slot to
     * launch only while a writer is free and some slot is not writing.
     */
    std::uint32_t writing_ = 0;
    Cycle nextDone_ = kNoCycle;
    /**
     * Buffered-line counts per filterCount bucket: a zero count
     * proves a line is not buffered, so findSlot skips its scan --
     * the common case when a full buffer rejects retried writebacks
     * every cycle.
     */
    static constexpr int kLineFilterBits = 11;
    std::array<std::uint32_t, 1u << kLineFilterBits> lineFilter_{};
    PersistHook persistHook_;
    MediaWriteHook mediaWriteHook_;
    AcceptFaultHook acceptFault_;
    bool lastRejectTransient_ = false;
    NvmStats stats_;
};

} // namespace ede

#endif // EDE_MEM_NVM_HH
