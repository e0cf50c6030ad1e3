#include "mem/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ede {

namespace {

bool
isWriteClass(const MemReq &req)
{
    return req.kind == ReqKind::Writeback || req.kind == ReqKind::Clean;
}

} // namespace

MemController::MemController(AddrMap map, DramParams dram, NvmParams nvm)
    : map_(map), dram_(dram), nvm_(nvm)
{
}

bool
MemController::tryAccept(const MemReq &req, Cycle now)
{
    if (req.addr >= map_.limit()) {
        ede_panic("request beyond physical memory: 0x", std::hex,
                  req.addr);
    }
    if (map_.isNvm(req.addr)) {
        if (isWriteClass(req) && !retryQ_.empty()) {
            // Preserve write order behind earlier transient rejects.
            if (retryQ_.size() >= kRetryDepth)
                return false;
            retryQ_.push_back(req);
            return true;
        }
        if (nvm_.tryAccept(req, now))
            return true;
        if (isWriteClass(req) && nvm_.lastRejectTransient() &&
            retryQ_.size() < kRetryDepth) {
            retryQ_.push_back(req);
            backoff_ = kRetryBase;
            nextRetry_ = now + backoff_;
            return true;
        }
        return false;
    }

    // DRAM side: a Clean has nothing durable to do; acknowledge it at
    // the controller boundary.
    if (req.kind == ReqKind::Clean) {
        immediate_.push_back(MemResp{req.id, ReqKind::Clean, req.addr,
                                     req.core});
        return true;
    }
    return dram_.tryAccept(req, now);
}

Cycle
MemController::acceptCycle(const MemReq &req, Cycle now) const
{
    if (map_.isNvm(req.addr) && retryQ_.empty())
        return nvm_.acceptCycle(req, now);
    return now;
}

void
MemController::replayRefused(const MemReq &req, std::uint64_t n)
{
    ede_assert(map_.isNvm(req.addr) && retryQ_.empty(),
               "replayed refusals of 0x", std::hex, req.addr,
               " that the NVM does not defer");
    nvm_.replayRefused(req, n);
}

void
MemController::drainRetries(Cycle now)
{
    while (!retryQ_.empty() && nextRetry_ <= now) {
        if (nvm_.tryAccept(retryQ_.front(), now)) {
            retryQ_.pop_front();
            backoff_ = kRetryBase;
        } else {
            backoff_ = std::min(kRetryMax, backoff_ * 2);
            nextRetry_ = now + backoff_;
            break;
        }
    }
}

void
MemController::tick(Cycle now)
{
    drainRetries(now);
    scratch_.clear();
    dram_.tick(now, scratch_);
    nvm_.tick(now, scratch_);
    for (const MemResp &resp : immediate_)
        scratch_.push_back(resp);
    immediate_.clear();
    for (const MemResp &resp : scratch_) {
        // Silent completions (evictions) carry no requester.
        if (resp.kind == ReqKind::Writeback && resp.id == kNoReq)
            continue;
        respond_(resp, now);
    }
}

bool
MemController::idle() const
{
    return dram_.idle() && nvm_.idle() && immediate_.empty() &&
           retryQ_.empty();
}

Cycle
MemController::nextEventCycle(Cycle now) const
{
    Cycle next = std::min(dram_.nextEventCycle(now),
                          nvm_.nextEventCycle(now));
    if (!immediate_.empty())
        next = std::min(next, now);
    // Retry attempts mutate the backoff schedule (and may consult a
    // fault-injection hook), so every attempt cycle must execute.
    if (!retryQ_.empty())
        next = std::min(next, std::max(now, nextRetry_));
    return next;
}

} // namespace ede
