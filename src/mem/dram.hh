/**
 * @file
 * DDR4-2400-like DRAM device timing model.
 *
 * Open-page policy with per-bank row buffers: a request to the open
 * row pays the column access latency, anything else pays
 * precharge+activate+column.  Bank count matches Table I (2 ranks x
 * 16 banks behind one channel).  All latencies are in core cycles
 * (3 GHz core).
 */

#ifndef EDE_MEM_DRAM_HH
#define EDE_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "mem/req.hh"

namespace ede {

/** DRAM timing/geometry parameters. */
struct DramParams
{
    std::uint32_t banks = 32;        ///< 2 ranks x 16 banks.
    std::uint32_t rowBytes = 2048;   ///< Row buffer size.
    Cycle rowHit = 45;               ///< ~15 ns column access.
    Cycle rowMiss = 135;             ///< ~45 ns pre+act+cas.
    Cycle busBurst = 10;             ///< ~3.3 ns for a 64 B burst.
    std::uint32_t queueDepth = 32;
};

void
visitFields(auto &v, FieldsOf<DramParams> auto &p)
{
    v("banks", p.banks);
    v("row_bytes", p.rowBytes);
    v("row_hit", p.rowHit);
    v("row_miss", p.rowMiss);
    v("bus_burst", p.busBurst);
    v("queue_depth", p.queueDepth);
}

/** DRAM counters. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rejects = 0;
};

void
visitFields(auto &v, FieldsOf<DramStats> auto &s)
{
    v("reads", s.reads);
    v("writes", s.writes);
    v("row_hits", s.rowHits);
    v("row_misses", s.rowMisses);
    v("rejects", s.rejects);
}

/** One DRAM channel with banked row buffers. */
class DramDevice
{
  public:
    explicit DramDevice(DramParams params = {});

    /** Offer a request; false when the queue is full. */
    bool tryAccept(const MemReq &req, Cycle now);

    /** Advance one cycle; completed reads are pushed to @p out. */
    void tick(Cycle now, std::vector<MemResp> &out);

    /** True when nothing is queued or in flight. */
    bool idle() const;

    /**
     * Skip-ahead hint: earliest cycle >= @p now at which tick() might
     * complete a pending access or issue a queued request (a bank and
     * the bus become free).  kNoCycle when fully drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    const DramStats &stats() const { return stats_; }

  private:
    struct Bank
    {
        bool rowOpen = false;
        Addr openRow = 0;
        Cycle busyUntil = 0;
    };

    struct Pending
    {
        Cycle due;
        MemResp resp;
        bool operator>(const Pending &o) const { return due > o.due; }
    };

    std::size_t bankIndex(Addr addr) const;
    Addr rowIndex(Addr addr) const;

    DramParams params_;
    std::vector<Bank> banks_;
    std::deque<MemReq> queue_;
    std::priority_queue<Pending, std::vector<Pending>,
                        std::greater<Pending>> completions_;
    Cycle busBusyUntil_ = 0;
    std::uint64_t inFlightWrites_ = 0;
    DramStats stats_;
};

} // namespace ede

#endif // EDE_MEM_DRAM_HH
