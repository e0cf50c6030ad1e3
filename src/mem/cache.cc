#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ede {

void
MemSink::replayRefused(const MemReq &req, std::uint64_t n)
{
    (void)n;
    ede_panic("replayed refusals of 0x", std::hex, req.addr,
              " at a sink that never defers an accept");
}

ReqRing::ReqRing(std::size_t capacity)
{
    grow(std::bit_ceil(capacity));
}

void
ReqRing::grow(std::size_t capacity)
{
    std::vector<MemReq> buf(capacity);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = buf_[(head_ + i) & mask_];
    buf_.swap(buf);
    mask_ = capacity - 1;
    head_ = 0;
    tail_ = n;
}

Cache::Cache(CacheParams params, MemSink *below)
    : params_(std::move(params)), below_(below),
      inputQ_(params_.inputQueue)
{
    ede_assert(below_, "cache '", params_.name, "' needs a level below");
    ede_assert((params_.lineBytes & (params_.lineBytes - 1)) == 0,
               "line size must be a power of two");
    mask_ = params_.lineBytes - 1;
    lineShift_ = static_cast<unsigned>(std::countr_zero(params_.lineBytes));
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    ede_assert(numSets_ > 0, "cache '", params_.name, "' too small");
    pow2Sets_ = std::has_single_bit(numSets_);
    tags_.assign(numSets_ * params_.assoc, kNoAddr);
    lines_.resize(numSets_ * params_.assoc);
    mshrs_.resize(params_.mshrs);
    freeMshrs_ = mshrs_.size();
}

std::size_t
Cache::lookup(Addr addr) const
{
    const Addr la = lineAddr(addr);
    const std::size_t base = setBase(la);
    for (std::size_t w = base; w < base + params_.assoc; ++w) {
        if (tags_[w] == la)
            return w;
    }
    return kNoWay;
}

void
Cache::preload(Addr addr, Cycle now, bool dirty)
{
    const std::size_t way = lookup(addr);
    if (way != kNoWay)
        lines_[way].dirty = lines_[way].dirty || dirty;
    else
        installLine(lineAddr(addr), dirty, now);
}

SnoopResult
Cache::snoopInvalidate(Addr addr)
{
    const std::size_t way = lookup(addr);
    if (way == kNoWay)
        return SnoopResult::Miss;
    const bool was_dirty = lines_[way].dirty;
    tags_[way] = kNoAddr;
    lines_[way].dirty = false;
    ++stats_.snoopInvalidations;
    return was_dirty ? SnoopResult::Dirty : SnoopResult::Clean;
}

SnoopResult
Cache::snoopDowngrade(Addr addr)
{
    const std::size_t way = lookup(addr);
    if (way == kNoWay)
        return SnoopResult::Miss;
    if (!lines_[way].dirty)
        return SnoopResult::Clean;
    lines_[way].dirty = false;
    ++stats_.snoopDowngrades;
    return SnoopResult::Dirty;
}

bool
Cache::probe(Addr addr) const
{
    return lookup(addr) != kNoWay;
}

bool
Cache::probeDirty(Addr addr) const
{
    const std::size_t way = lookup(addr);
    return way != kNoWay && lines_[way].dirty;
}

bool
Cache::tryAccept(const MemReq &req, Cycle now)
{
    (void)now;
    if (inputQ_.size() >= params_.inputQueue) {
        ++stats_.rejects;
        return false;
    }
    inputQ_.push_back(req);
    return true;
}

Cache::Mshr *
Cache::findMshr(Addr line_addr)
{
    if (freeMshrs_ == mshrs_.size())
        return nullptr;
    for (Mshr &m : mshrs_) {
        if (m.valid && m.lineAddr == line_addr)
            return &m;
    }
    return nullptr;
}

Cache::Mshr *
Cache::allocMshr(Addr line_addr)
{
    for (Mshr &m : mshrs_) {
        if (!m.valid) {
            m.valid = true;
            m.fillSent = false;
            m.lineAddr = line_addr;
            m.waiters.clear();
            --freeMshrs_;
            return &m;
        }
    }
    return nullptr;
}

void
Cache::scheduleResp(const MemResp &resp, Cycle due)
{
    respQ_.push(PendingResp{due, resp});
}

void
Cache::sendBelowOrRetry(const MemReq &req, Cycle now)
{
    if (!below_->tryAccept(req, now))
        retryQ_.push_back(req);
}

void
Cache::installLine(Addr line_addr, bool dirty, Cycle now)
{
    // The first invalid way, else the least recently used one (the
    // lowest way among equals).
    const std::size_t base = setBase(line_addr);
    std::size_t victim = base;
    for (std::size_t w = base; w < base + params_.assoc; ++w) {
        if (tags_[w] == kNoAddr) {
            victim = w;
            break;
        }
        if (lines_[w].lastUse < lines_[victim].lastUse)
            victim = w;
    }
    if (tags_[victim] != kNoAddr) {
        ++stats_.evictions;
        if (lines_[victim].dirty) {
            ++stats_.writebacks;
            MemReq wb;
            wb.id = kNoReq;
            wb.kind = ReqKind::Writeback;
            wb.addr = tags_[victim];
            wb.size = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(params_.lineBytes, 255));
            sendBelowOrRetry(wb, now);
        }
    }
    tags_[victim] = line_addr;
    lines_[victim] = Line{dirty, now};
}

void
Cache::processRequest(const MemReq &req, std::size_t way, Cycle now)
{
    const Addr la = lineAddr(req.addr);
    switch (req.kind) {
      case ReqKind::Clean: {
        // Data (if any was dirty here) travels with the clean.
        if (way != kNoWay)
            lines_[way].dirty = false;
        ++stats_.cleansForwarded;
        ++inFlightCleans_;
        MemReq fwd = req;
        fwd.addr = la;
        sendBelowOrRetry(fwd, now);
        return;
      }
      case ReqKind::Writeback: {
        if (way != kNoWay) {
            lines_[way] = Line{true, now};
            ++stats_.hits;
        } else {
            // The victim carries the whole line: allocate without fill.
            ++stats_.misses;
            installLine(la, /*dirty=*/true, now);
        }
        return;
      }
      case ReqKind::Read:
      case ReqKind::Write: {
        if (way != kNoWay) {
            ++stats_.hits;
            lines_[way].lastUse = now;
            if (req.kind == ReqKind::Write)
                lines_[way].dirty = true;
            scheduleResp(MemResp{req.id, req.kind, req.addr, req.core},
                         now + params_.latency);
            return;
        }
        ++stats_.misses;
        if (Mshr *m = findMshr(la)) {
            ++stats_.mshrMerges;
            m->waiters.push_back(req);
            return;
        }
        Mshr *m = allocMshr(la);
        ede_assert(m, "allocMshr after the free-MSHR check");
        m->waiters.push_back(req);
        m->fillSent = true;
        MemReq fill;
        fill.id = kNoReq;
        fill.kind = ReqKind::Read;
        fill.addr = la;
        fill.size = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(params_.lineBytes, 255));
        fill.core = req.core;
        sendBelowOrRetry(fill, now + params_.latency);
        return;
      }
    }
}

void
Cache::handleResp(const MemResp &resp, Cycle now)
{
    if (resp.kind == ReqKind::Clean) {
        ede_assert(inFlightCleans_ > 0,
                   params_.name, ": clean response with none in flight");
        --inFlightCleans_;
        respond_(resp, now);
        return;
    }

    // A returning line fill.
    ede_assert(resp.kind == ReqKind::Read,
               params_.name, ": unexpected response kind");
    Mshr *m = findMshr(lineAddr(resp.addr));
    ede_assert(m, params_.name, ": fill response without an MSHR for 0x",
               std::hex, resp.addr);
    bool any_write = false;
    for (const MemReq &w : m->waiters)
        any_write |= (w.kind == ReqKind::Write);
    installLine(m->lineAddr, any_write, now);
    for (const MemReq &w : m->waiters) {
        scheduleResp(MemResp{w.id, w.kind, w.addr, w.core},
                     now + params_.latency);
    }
    m->valid = false;
    ++freeMshrs_;
}

void
Cache::tick(Cycle now)
{
    // Deliver due responses upward.
    while (!respQ_.empty() && respQ_.top().due <= now) {
        MemResp resp = respQ_.top().resp;
        respQ_.pop();
        respond_(resp, now);
    }

    // Retry requests the level below refused earlier.
    while (!retryQ_.empty()) {
        if (!below_->tryAccept(retryQ_.front(), now))
            break;
        retryQ_.pop_front();
    }

    // Process new requests, up to the port limit.
    for (std::uint32_t p = 0; p < params_.ports && !inputQ_.empty(); ++p) {
        const MemReq req = inputQ_.front();
        const std::size_t way = lookup(req.addr);
        // A miss needs either a matching MSHR or a free one; stall the
        // head of the queue otherwise (the fill path is saturated).
        if ((req.kind == ReqKind::Read || req.kind == ReqKind::Write) &&
            way == kNoWay && freeMshrs_ == 0 &&
            !findMshr(lineAddr(req.addr))) {
            break;
        }
        inputQ_.pop_front();
        processRequest(req, way, now);
    }
}

bool
Cache::idle() const
{
    if (!inputQ_.empty() || !retryQ_.empty() || !respQ_.empty())
        return false;
    return inFlightCleans_ == 0 && freeMshrs_ == mshrs_.size();
}

void
Cache::replaySkipped(std::uint64_t n)
{
    if (!retryQ_.empty())
        below_->replayRefused(retryQ_.front(), n);
}

Cycle
Cache::nextEventCycle(Cycle now) const
{
    // Queued input is processed every cycle and may interact with
    // MSHRs and the levels below, so a tick with any must execute.
    if (!inputQ_.empty())
        return now;
    // The retry loop stops at a refused head, so the head's accept
    // cycle is the retry queue's event.  The level below answers now
    // unless every attempt before its answer is refused and only
    // bumps counters it can replay (MemSink::acceptCycle).
    Cycle next = kNoCycle;
    if (!retryQ_.empty())
        next = std::max(now, below_->acceptCycle(retryQ_.front(), now));
    if (!respQ_.empty())
        next = std::min(next, std::max(now, respQ_.top().due));
    return next;
}

} // namespace ede
