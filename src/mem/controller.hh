/**
 * @file
 * Hybrid memory controller fronting DRAM and NVM.
 *
 * One controller receives all requests below the LLC and routes them
 * by physical address (Section VI-A).  Cleans addressed to DRAM
 * complete immediately at the controller: with ADR, the controller
 * queues are already inside the persistence domain and DRAM data is
 * not expected to survive anyway.
 *
 * Write-class NVM requests the device rejects *transiently* (the
 * fault campaign's injected accept failures) are absorbed into a
 * small controller-side FIFO and re-offered with exponential backoff,
 * so a flaky DIMM interface degrades bandwidth instead of wedging the
 * LLC.  Buffer-full rejections keep the original bounce-to-LLC path
 * untouched; with no fault hook installed the queue never fills and
 * timing is identical to the fault-free model.
 */

#ifndef EDE_MEM_CONTROLLER_HH
#define EDE_MEM_CONTROLLER_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/nvm.hh"

namespace ede {

/** Routes requests to the DRAM or NVM device by address. */
class MemController : public MemSink
{
  public:
    MemController(AddrMap map, DramParams dram, NvmParams nvm);

    bool tryAccept(const MemReq &req, Cycle now) override;

    /**
     * The NVM's accept cycle for an NVM request while the
     * transient-retry queue is empty (a non-empty one takes or bounces
     * write-class requests on its own terms); @p now otherwise.
     */
    Cycle acceptCycle(const MemReq &req, Cycle now) const override;

    void replayRefused(const MemReq &req, std::uint64_t n) override;

    /** Install the callback receiving responses (to the LLC). */
    void setRespFn(RespFn fn) { respond_ = std::move(fn); }

    /** Advance one cycle. */
    void tick(Cycle now);

    /** True when both devices are drained. */
    bool idle() const;

    /**
     * Skip-ahead hint: the minimum of the device hints, the pending
     * immediate responses, and the retry-queue backoff deadline.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Device access for stats and hooks. */
    NvmDevice &nvm() { return nvm_; }
    const NvmDevice &nvm() const { return nvm_; }
    DramDevice &dram() { return dram_; }
    const DramDevice &dram() const { return dram_; }
    const AddrMap &addrMap() const { return map_; }

    /** Write-class requests waiting out a transient NVM fault. */
    std::size_t retryPending() const { return retryQ_.size(); }

  private:
    /** Bound on absorbed transient rejects before back-pressuring. */
    static constexpr std::size_t kRetryDepth = 16;
    static constexpr Cycle kRetryBase = 4;   ///< First re-offer delay.
    static constexpr Cycle kRetryMax = 512;  ///< Backoff ceiling.

    void drainRetries(Cycle now);

    AddrMap map_;
    DramDevice dram_;
    NvmDevice nvm_;
    RespFn respond_;
    std::vector<MemResp> immediate_;
    std::vector<MemResp> scratch_;
    std::deque<MemReq> retryQ_;  ///< Transiently rejected NVM writes.
    Cycle nextRetry_ = 0;
    Cycle backoff_ = kRetryBase;
};

} // namespace ede

#endif // EDE_MEM_CONTROLLER_HH
