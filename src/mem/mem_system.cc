#include "mem/mem_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ede {

MemSystem::MemSystem(MemSystemParams params, unsigned coreCount)
    : params_(std::move(params))
{
    ede_assert(coreCount >= 1, "a hierarchy needs at least one core");
    ctrl_ = std::make_unique<MemController>(params_.map, params_.dram,
                                            params_.nvm);
    l3_ = std::make_unique<Cache>(params_.l3, ctrl_.get());
    l2_ = std::make_unique<Cache>(params_.l2, l3_.get());
    l1ds_.reserve(coreCount);
    for (unsigned c = 0; c < coreCount; ++c) {
        CacheParams p = params_.l1d;
        if (coreCount > 1)
            p.name = params_.l1d.name + "." + std::to_string(c);
        l1ds_.push_back(std::make_unique<Cache>(p, l2_.get()));
    }

    ctrl_->setRespFn([this](const MemResp &r, Cycle now) {
        l3_->handleResp(r, now);
    });
    l3_->setRespFn([this](const MemResp &r, Cycle now) {
        l2_->handleResp(r, now);
    });
    l2_->setRespFn([this](const MemResp &r, Cycle now) {
        // Responses crossing the coherence point carry the core that
        // asked; dirty-eviction acknowledgements (no waiting core)
        // default to 0, which is always a valid L1.
        l1ds_.at(r.core)->handleResp(r, now);
    });
    // Each L1 serves one core, so it knows whose request finished.
    pendingDone_.assign(coreCount, 0);
    for (unsigned c = 0; c < coreCount; ++c) {
        l1ds_[c]->setRespFn([this, c](const MemResp &r, Cycle) {
            if (r.id != kNoReq && done_.emplace(r.id, c).second)
                ++pendingDone_[c];
        });
    }
}

void
MemSystem::snoopPeers(const MemReq &req, Cycle now)
{
    ++coherence_.snoops;
    for (unsigned c = 0; c < l1ds_.size(); ++c) {
        if (c == req.core)
            continue;
        Cache &peer = *l1ds_[c];
        const SnoopResult r = req.kind == ReqKind::Write
            ? peer.snoopInvalidate(req.addr)
            : peer.snoopDowngrade(req.addr);
        if (r == SnoopResult::Miss)
            continue;
        if (req.kind == ReqKind::Write)
            ++coherence_.invalidations;
        else
            ++coherence_.downgrades;
        if (r == SnoopResult::Dirty) {
            // The modelled cache-to-cache transfer: the snooped-out
            // dirty data lands at the coherence point, so the
            // requester's fill (and any later writeback) sees it
            // there instead of racing the peer's eviction.
            ++coherence_.dirtyHandoffs;
            l2_->preload(req.addr, now, /*dirty=*/true);
        }
    }
}

std::optional<ReqId>
MemSystem::send(ReqKind kind, Addr addr, std::uint8_t size, Cycle now,
                TraceIndex origin, unsigned core)
{
    MemReq req;
    req.id = nextId_;
    req.kind = kind;
    req.addr = addr;
    req.size = size;
    req.origin = origin;
    req.core = core;
    if (!l1ds_.at(core)->tryAccept(req, now))
        return std::nullopt;
    if (l1ds_.size() > 1)
        snoopPeers(req, now);
    ++nextId_;
    return req.id;
}

std::optional<ReqId>
MemSystem::sendLoad(Addr addr, std::uint8_t size, Cycle now,
                    unsigned core)
{
    return send(ReqKind::Read, addr, size, now, kNoOrigin, core);
}

std::optional<ReqId>
MemSystem::sendStore(Addr addr, std::uint8_t size, Cycle now,
                     TraceIndex origin, unsigned core)
{
    return send(ReqKind::Write, addr, size, now, origin, core);
}

std::optional<ReqId>
MemSystem::sendClean(Addr addr, Cycle now, TraceIndex origin,
                     unsigned core)
{
    return send(ReqKind::Clean, addr, 64, now, origin, core);
}

bool
MemSystem::consumeDone(ReqId id)
{
    const auto it = done_.find(id);
    if (it == done_.end())
        return false;
    --pendingDone_[it->second];
    done_.erase(it);
    return true;
}

void
MemSystem::warmLine(Addr addr, int level)
{
    l3_->preload(addr);
    if (level <= 2)
        l2_->preload(addr);
    if (level <= 1) {
        for (auto &l1 : l1ds_)
            l1->preload(addr);
    }
}

void
MemSystem::tick(Cycle now)
{
    ctrl_->tick(now);
    l3_->tick(now);
    l2_->tick(now);
    for (auto &l1 : l1ds_)
        l1->tick(now);
}

void
MemSystem::replaySkipped(std::uint64_t n)
{
    // A skip window holds only deferred retries: a cache with queued
    // input, or a retry its sink did not defer, hints now.
    l3_->replaySkipped(n);
    l2_->replaySkipped(n);
    for (auto &l1 : l1ds_)
        l1->replaySkipped(n);
}

bool
MemSystem::idle() const
{
    if (!ctrl_->idle() || !l3_->idle() || !l2_->idle())
        return false;
    for (const auto &l1 : l1ds_) {
        if (!l1->idle())
            return false;
    }
    return true;
}

Cycle
MemSystem::nextEventCycle(Cycle now) const
{
    // An unconsumed completion means a core acts on it next poll.
    if (!done_.empty())
        return now;
    Cycle next = std::min(l2_->nextEventCycle(now),
                          std::min(l3_->nextEventCycle(now),
                                   ctrl_->nextEventCycle(now)));
    for (const auto &l1 : l1ds_)
        next = std::min(next, l1->nextEventCycle(now));
    return next;
}

} // namespace ede
