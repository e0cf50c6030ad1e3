#include "mem/nvm.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ede {

NvmDevice::NvmDevice(NvmParams params)
    : params_(params), occupancy_(params.bufferSlots, 1),
      lineShift_(std::countr_zero(params.lineBytes))
{
    slots_.reserve(params_.bufferSlots);
    readPortFree_.assign(params_.mediaReaders, 0);
}

const NvmDevice::Slot *
NvmDevice::findSlot(Addr line_addr) const
{
    if (lineFilter_[filterBucket(line_addr)] == 0)
        return nullptr;
    for (const Slot &s : slots_) {
        if (s.lineAddr == line_addr)
            return &s;
    }
    return nullptr;
}

void
NvmDevice::rescanNextDone()
{
    nextDone_ = kNoCycle;
    for (const Slot &s : slots_) {
        if (s.writing)
            nextDone_ = std::min(nextDone_, s.writeDone);
    }
}

bool
NvmDevice::acceptWrite(const MemReq &req, Cycle now, bool is_clean)
{
    const Addr line = mediaLine(req.addr);
    Slot *slot = findSlot(line);
    if (slot) {
        ++stats_.writesCoalesced;
        // A write being pushed to the media cannot absorb new data;
        // coalescing into it would lose the update.  Re-arm the slot.
        if (slot->writing) {
            slot->writing = false;
            slot->enqueued = now;
            --writing_;
            rescanNextDone();
        }
    } else {
        if (slots_.size() >= params_.bufferSlots) {
            ++stats_.bufferFullRejects;
            return false;
        }
        Slot fresh;
        fresh.lineAddr = line;
        fresh.enqueued = now;
        slots_.push_back(fresh);
        ++filterCount(line);
    }
    ++stats_.writesAccepted;
    if (is_clean) {
        ++stats_.cleansAccepted;
        completions_.push(Pending{now + params_.bufferAccept,
                                  MemResp{req.id, ReqKind::Clean,
                                          req.addr, req.core}});
    }
    // The buffer is inside the persistence domain (ADR): entering it
    // makes the data crash-durable.
    if (persistHook_) {
        persistHook_(req.addr, req.size ? req.size : 64, now, req.origin,
                     req.core);
    }
    return true;
}

bool
NvmDevice::tryAccept(const MemReq &req, Cycle now)
{
    lastRejectTransient_ = false;
    switch (req.kind) {
      case ReqKind::Writeback:
      case ReqKind::Clean: {
        if (acceptFault_ && acceptFault_(req, now)) {
            ++stats_.transientRejects;
            lastRejectTransient_ = true;
            return false;
        }
        return acceptWrite(req, now,
                           /*is_clean=*/req.kind == ReqKind::Clean);
      }
      case ReqKind::Read:
      case ReqKind::Write: {
        if (readQ_.size() >= params_.readQueueDepth)
            return false;
        readQ_.push_back(req);
        return true;
      }
    }
    return false;
}

void
NvmDevice::tick(Cycle now, std::vector<MemResp> &out)
{
    while (!completions_.empty() && completions_.top().due <= now) {
        out.push_back(completions_.top().resp);
        completions_.pop();
    }

    // Media read ports.
    while (!readQ_.empty()) {
        const MemReq &req = readQ_.front();
        const Addr line = mediaLine(req.addr);
        if (findSlot(line)) {
            // Served from the pending-write buffer.
            ++stats_.reads;
            ++stats_.bufferReadHits;
            completions_.push(Pending{now + params_.bufferReadHit,
                                      MemResp{req.id, req.kind,
                                              req.addr, req.core}});
            readQ_.pop_front();
            continue;
        }
        auto port = std::min_element(readPortFree_.begin(),
                                     readPortFree_.end());
        if (*port > now)
            break;
        ++stats_.reads;
        *port = now + params_.readLatency;
        completions_.push(Pending{now + params_.readLatency,
                                  MemResp{req.id, req.kind, req.addr,
                                          req.core}});
        readQ_.pop_front();
    }

    // Media write ports: finish in-flight writes, then launch new
    // ones oldest-first.
    if (nextDone_ <= now) {
        for (auto it = slots_.begin(); it != slots_.end();) {
            if (it->writing && it->writeDone <= now) {
                ++stats_.mediaWrites;
                // Fig. 10 sample: pending writes when a store reaches
                // the media (the completing write still occupies its
                // slot).
                occupancy_.sample(slots_.size());
                if (mediaWriteHook_)
                    mediaWriteHook_(it->lineAddr, now);
                --filterCount(it->lineAddr);
                it = slots_.erase(it);
                --writing_;
            } else {
                ++it;
            }
        }
        rescanNextDone();
    }
    while (writing_ < params_.mediaWriters && writing_ < slots_.size()) {
        Slot *oldest = nullptr;
        for (Slot &s : slots_) {
            if (!s.writing && (!oldest || s.enqueued < oldest->enqueued))
                oldest = &s;
        }
        oldest->writing = true;
        oldest->writeDone = now + params_.writeLatency;
        ++writing_;
        nextDone_ = std::min(nextDone_, oldest->writeDone);
    }
}

bool
NvmDevice::refusesUntilDone(const MemReq &req) const
{
    // A full buffer refuses a new line until a media write in flight
    // frees its slot at nextDone_; nothing else can free one.  A fault
    // hook may answer any attempt differently, so it keeps every
    // attempt.  So does a queued read: the read hint in
    // nextEventCycle can be late, and a skip right after the retry
    // window could cross it where per-cycle retries, still in the run
    // loop's failed-attempt backoff, did not.
    const bool write = req.kind == ReqKind::Writeback ||
                       req.kind == ReqKind::Clean;
    return write && slots_.size() >= params_.bufferSlots &&
           writing_ > 0 && !acceptFault_ && readQ_.empty() &&
           !findSlot(mediaLine(req.addr));
}

Cycle
NvmDevice::acceptCycle(const MemReq &req, Cycle now) const
{
    return refusesUntilDone(req) ? std::max(now, nextDone_) : now;
}

void
NvmDevice::replayRefused(const MemReq &req, std::uint64_t n)
{
    ede_assert(refusesUntilDone(req), "replayed refusals of 0x",
               std::hex, req.addr, " that the buffer would accept");
    stats_.bufferFullRejects += n;
}

bool
NvmDevice::idle() const
{
    return slots_.empty() && readQ_.empty() && completions_.empty();
}

Cycle
NvmDevice::nextEventCycle(Cycle now) const
{
    Cycle next = kNoCycle;
    if (!completions_.empty())
        next = std::min(next, std::max(now, completions_.top().due));
    if (!readQ_.empty()) {
        // The queue head waits for a media read port.  This hint is
        // late once the head's line enters the buffer: tick() then
        // serves the read at once, without a port.  That takes a
        // write accept, but not necessarily core activity -- an L3
        // retry taken when a media write frees a slot is none -- so a
        // skip after such a tick can jump past the read.  This is the
        // N-core ticker divergence of ROADMAP item 5; its fix changes
        // skip-ahead results, so it waits for a benchmark change.
        const Cycle port = *std::min_element(readPortFree_.begin(),
                                             readPortFree_.end());
        next = std::min(next, std::max(now, port));
    }
    if (writing_ > 0)
        next = std::min(next, std::max(now, nextDone_));
    // Writer slots free only at a writeDone (covered above), but be
    // defensive: a launchable slot with a free writer acts this cycle.
    if (writing_ < slots_.size() && writing_ < params_.mediaWriters)
        next = std::min(next, now);
    return next;
}

} // namespace ede
