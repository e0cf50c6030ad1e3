#include "pipeline/core.hh"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/logging.hh"

namespace ede {

const char *
tickingModeName(TickingMode mode)
{
    switch (mode) {
      case TickingMode::Auto:      return "auto";
      case TickingMode::SkipAhead: return "skip-ahead";
      case TickingMode::Reference: return "reference";
    }
    return "?";
}

TickingMode
resolveTickingMode(TickingMode mode)
{
    if (mode != TickingMode::Auto)
        return mode;
    // Read once: flipping the env var mid-process must not leave two
    // cores of one comparison run in different modes by accident.
    static const bool reference = [] {
        const char *v = std::getenv("EDE_REFERENCE_TICKING");
        return v && *v && std::string_view(v) != "0";
    }();
    return reference ? TickingMode::Reference : TickingMode::SkipAhead;
}

OoOCore::OoOCore(CoreParams params, MemSystem &mem, unsigned coreId)
    : params_(params), mem_(mem), coreId_(coreId),
      rob_(static_cast<std::size_t>(params.robSize)),
      predictor_(params.predictorEntries)
{
    ticking_ = resolveTickingMode(params_.ticking);
    regMap_.fill(kNoSeq);
    // Sized for the ROB plus the write buffer's retired stores; squash
    // gaps grow them.
    const SeqSet sized(2 * static_cast<std::size_t>(params_.robSize));
    notExecuted_ = incomplete_ = incompleteStores_ = incompleteCvaps_ =
        incompleteDsbs_ = incompleteDmbs_ = sized;
    wb_ = std::make_unique<WriteBuffer>(
        params_.wbSize, params_.wbDrainPerCycle,
        mem_.params().l1d.lineBytes, mem_,
        [this](const WbEntry &e, Cycle now) { onWbComplete(e, now); },
        [this](SeqNum barrier) { return storesOlderIncomplete(barrier); },
        coreId);
}

bool
OoOCore::regsReady(const InflightInst &inst) const
{
    for (SeqNum dep : {inst.regDep1, inst.regDep2, inst.regDepBase}) {
        if (notExecuted_.contains(dep))
            return false;
    }
    return true;
}

bool
OoOCore::gatesAtIssue(const InflightInst &inst) const
{
    if (inst.edeSrc == kNoSeq && inst.edeSrc2 == kNoSeq)
        return false;
    if (params_.ede == EnforceMode::WB) {
        // Loads observe memory at execute, so the load variant must
        // still be enforced at issue even in the WB design.
        return inst.di.isLoad();
    }
    return true;
}

bool
OoOCore::edeIssueReady(const InflightInst &inst) const
{
    return !incomplete_.contains(inst.edeSrc) &&
           !incomplete_.contains(inst.edeSrc2);
}

bool
OoOCore::storesOlderIncomplete(SeqNum barrier) const
{
    return incompleteStores_.min() < barrier ||
           (params_.dmbStCoversCvap && incompleteCvaps_.min() < barrier);
}

void
OoOCore::recordCompletion(std::size_t trace_idx, Cycle now)
{
    if (recordCompletions_)
        completionCycles_[trace_idx] = now;
    if (!watched_.empty()) {
        auto it = watched_.find(trace_idx);
        if (it != watched_.end())
            it->second = now;
    }
}

void
OoOCore::completeSeq(SeqNum seq, const StaticInst &si,
                     std::size_t trace_idx, Cycle now)
{
    lastProgressCycle_ = now;
    progress_ = true;
    incomplete_.erase(seq);
    if (opIsStore(si.op))
        incompleteStores_.erase(seq);
    if (opIsCvap(si.op))
        incompleteCvaps_.erase(seq);
    if (si.isEdeProducer())
        edm_.complete(si.edkDef, seq);
    wb_->onProducerComplete(seq);
    if (InflightInst *in = rob_.find(seq)) {
        in->completed = true;
        in->completeCycle = now;
        if (in->edeCounted) {
            countersExit(si);
            in->edeCounted = false;
        }
    }
    recordCompletion(trace_idx, now);
}

void
OoOCore::onWbComplete(const WbEntry &entry, Cycle now)
{
    if (opIsStore(entry.si.op) && timingImage_) {
        timingImage_->write(entry.addr, entry.val0);
        if (entry.si.op == Op::Stp)
            timingImage_->write(entry.addr + 8, entry.val1);
    }
    if (entry.edeCounted)
        countersExit(entry.si);
    completeSeq(entry.seq, entry.si, entry.traceIdx, now);
}

void
OoOCore::pollLoads(Cycle now)
{
    // Most ticks finish no request of this core: nothing to consume.
    if (!mem_.hasDone(coreId_))
        return;
    for (auto it = outstandingLoads_.begin();
         it != outstandingLoads_.end();) {
        if (mem_.consumeDone(it->first, coreId_)) {
            InflightInst *in = rob_.find(it->second);
            ede_assert(in, "load completion for unknown seq ",
                       it->second);
            in->executed = true;
            in->execCycle = now;
            notExecuted_.erase(in->seq);
            completeSeq(in->seq, in->di.si, in->traceIdx, now);
            it = outstandingLoads_.erase(it);
        } else {
            ++it;
        }
    }
    for (auto it = orphanReqs_.begin(); it != orphanReqs_.end();) {
        if (mem_.consumeDone(*it, coreId_)) {
            it = orphanReqs_.erase(it);
            progress_ = true; // May unblock finished().
        } else {
            ++it;
        }
    }
}

void
OoOCore::execWriteback(Cycle now)
{
    while (!pendingExec_.empty() && pendingExec_.top().due <= now) {
        const SeqNum seq = pendingExec_.top().seq;
        pendingExec_.pop();
        // Any pop is state-changing -- including a stale (squashed)
        // event and the store/cvap agen path, which mutate pipeline
        // state without going through completeSeq.
        progress_ = true;
        InflightInst *in = rob_.find(seq);
        if (!in)
            continue; // Squashed after the event was scheduled.
        in->executed = true;
        in->execCycle = now;
        notExecuted_.erase(seq);
        const Op op = in->di.op();
        switch (op) {
          case Op::Str:
          case Op::Stp:
          case Op::DcCvap:
            // Address generation done; completion happens at the
            // write buffer.
            break;
          case Op::Branch:
          case Op::BranchCond: {
            if (op == Op::BranchCond)
                predictor_.update(in->di.pc, in->di.taken);
            const bool mispredicted = in->mispredicted;
            completeSeq(seq, in->di.si, in->traceIdx, now);
            if (mispredicted) {
                ++stats_.mispredicts;
                squash(*in, now);
            }
            break;
          }
          default:
            // ALU, moves, multiplies, IQ-mode JOINs, forwarded loads.
            completeSeq(seq, in->di.si, in->traceIdx, now);
            break;
        }
    }
}

void
OoOCore::checkDmbCompletion(Cycle now)
{
    while (!incompleteDmbs_.empty()) {
        const SeqNum d = incompleteDmbs_.min();
        if (storesOlderIncomplete(d))
            break;
        incompleteDmbs_.erase(d);
        InflightInst *in = rob_.find(d);
        ede_assert(in, "DMB completion for unknown seq ", d);
        completeSeq(d, in->di.si, in->traceIdx, now);
    }
}

void
OoOCore::checkDsbCompletion(Cycle now)
{
    while (!incompleteDsbs_.empty()) {
        const SeqNum d = incompleteDsbs_.min();
        if (incomplete_.min() != d)
            break; // Some older instruction is still incomplete.
        incompleteDsbs_.erase(d);
        InflightInst *in = rob_.find(d);
        ede_assert(in, "DSB completion for unknown seq ", d);
        in->executed = true;
        in->execCycle = now;
        completeSeq(d, in->di.si, in->traceIdx, now);
    }
}

void
OoOCore::retire(Cycle now)
{
    for (int n = 0; n < params_.retireWidth && !rob_.empty(); ++n) {
        InflightInst &h = rob_.front();
        if (!h.executed)
            return;
        const Op op = h.di.op();
        const bool needsWb =
            opIsStore(op) || opIsCvap(op) ||
            (op == Op::Join && params_.ede == EnforceMode::WB);

        if ((op == Op::Ldr || op == Op::DsbSy || op == Op::DmbSt) &&
            !h.completed) {
            return;
        }
        // On a multi-core machine the WAIT conditions span the
        // coherence point: remote cores' tracked instructions for the
        // key must have drained too (see CrossCoreOrdering).
        if (op == Op::WaitKey && !waitKeyClear(h.di.si.edkUse))
            return;
        if (op == Op::WaitAllKeys && !waitAllClear())
            return;
        if (needsWb && wb_->full()) {
            ++stats_.retireStallWbFull;
            return;
        }

        if (needsWb) {
            WbEntry e;
            e.seq = h.seq;
            e.traceIdx = h.traceIdx;
            e.si = h.di.si;
            e.addr = h.di.addr;
            e.size = h.di.si.size;
            e.val0 = h.di.val0;
            e.val1 = h.di.val1;
            e.dmbBarrier = h.dmbBarrier;
            if (params_.ede == EnforceMode::WB) {
                e.srcId = h.edeSrc;
                e.srcId2 = h.edeSrc2;
            }
            if (h.di.si.usesEde()) {
                countersEnter(h.di.si);
                e.edeCounted = true;
            }
            wb_->insert(std::move(e));
        }

        if (op == Op::WaitKey || op == Op::WaitAllKeys)
            completeSeq(h.seq, h.di.si, h.traceIdx, now);

        // Retirement commits this producer's mapping into the
        // non-speculative EDM -- unless it already completed, in
        // which case the link is dead.
        if (h.di.si.isEdeProducer() && incomplete_.contains(h.seq))
            edm_.retireDefine(h.di.si.edkDef, h.seq);

        h.retireCycle = now;
        ++stats_.retired;
        lastProgressCycle_ = now;
        progress_ = true;
        if (op == Op::Ldr && !lq_.empty() && lq_.front() == &h)
            lq_.erase(lq_.begin());
        if ((opIsStore(op) || opIsCvap(op)) && !sq_.empty() &&
            sq_.front() == &h) {
            sq_.erase(sq_.begin());
        }
        rob_.popFront();
    }
}

void
OoOCore::issue(Cycle now)
{
    const SeqNum dsb_gate = incompleteDsbs_.min();
    const SeqNum dmb_gate = incompleteDmbs_.min();

    int alu = params_.aluUnits;
    int mul = params_.mulUnits;
    int branch = params_.branchUnits;
    int load = params_.loadUnits;
    int store = params_.storeUnits;
    int issued = 0;
    bool removed_any = false;

    for (InflightInst *inp : iq_) {
        if (issued >= params_.issueWidth)
            break;
        InflightInst &in = *inp;
        const SeqNum s = in.seq;
        if (s > dsb_gate)
            break; // Everything younger than an incomplete DSB waits.
        ede_assert(in.inIq, "stale IQ entry ", s);
        if (!in.srcsExecuted) {
            if (!regsReady(in))
                continue;
            in.srcsExecuted = true;
        }
        if (gatesAtIssue(in) && !edeIssueReady(in))
            continue; // eDepReady clear (Section V-B1).
        // Store barrier: younger memory operations wait in the LSQ.
        if (in.di.isMemRef() && in.seq > dmb_gate)
            continue;

        const Op op = in.di.op();
        bool launched = false;
        switch (op) {
          case Op::IntAlu:
          case Op::Mov:
          case Op::Join:
            if (alu > 0) {
                --alu;
                pendingExec_.push({now + params_.aluLatency, s});
                launched = true;
            }
            break;
          case Op::IntMult:
            if (mul > 0) {
                --mul;
                pendingExec_.push({now + params_.mulLatency, s});
                launched = true;
            }
            break;
          case Op::Branch:
          case Op::BranchCond:
            if (branch > 0) {
                --branch;
                pendingExec_.push({now + params_.branchLatency, s});
                launched = true;
            }
            break;
          case Op::Str:
          case Op::Stp:
          case Op::DcCvap:
            if (store > 0) {
                --store;
                pendingExec_.push({now + params_.agenLatency, s});
                launched = true;
            }
            break;
          case Op::Ldr: {
            if (load <= 0)
                break;
            if (in.memDep != kNoSeq) {
                if (notExecuted_.contains(in.memDep))
                    break; // Store address/data not ready yet.
                if (incomplete_.contains(in.memDep)) {
                    if (!in.memDepCovers)
                        break; // Partial overlap: wait for the store.
                    --load;
                    ++stats_.loadsForwarded;
                    pendingExec_.push({now + params_.forwardLatency, s});
                    launched = true;
                    break;
                }
                // Store already visible: normal cache access.
            }
            if (auto id = mem_.sendLoad(in.di.addr, in.di.si.size, now,
                                        coreId_)) {
                --load;
                outstandingLoads_[*id] = s;
                in.loadReq = *id;
                launched = true;
            } else {
                loadRefused_ = true;
            }
            break;
          }
          default:
            ede_panic("op ", opName(op), " should not be in the IQ");
        }
        if (launched) {
            in.issued = true;
            in.inIq = false;
            in.issueCycle = now;
            ++issued;
            ++stats_.issuedOps;
            removed_any = true;
            progress_ = true;
        }
    }

    if (removed_any) {
        std::erase_if(iq_,
                      [](const InflightInst *in) { return !in->inIq; });
    }
    stats_.issueHist.sample(static_cast<std::uint64_t>(issued));
}

void
OoOCore::dispatch(Cycle now)
{
    if (now < fetchResumeAt_)
        return;
    for (int n = 0; n < params_.fetchWidth; ++n) {
        if (fetchIdx_ >= trace_->size())
            return;
        const DynInst &di = (*trace_)[fetchIdx_];
        const Op op = di.op();

        const bool to_iq =
            op == Op::IntAlu || op == Op::IntMult || op == Op::Mov ||
            op == Op::Ldr || op == Op::Str || op == Op::Stp ||
            op == Op::DcCvap || op == Op::Branch ||
            op == Op::BranchCond ||
            (op == Op::Join && params_.ede != EnforceMode::WB);

        if (rob_.full()) {
            ++stats_.dispatchStallRob;
            return;
        }
        if (to_iq && iq_.size() >= static_cast<std::size_t>(
                params_.iqSize)) {
            ++stats_.dispatchStallIq;
            return;
        }
        if (op == Op::Ldr && lq_.size() >= static_cast<std::size_t>(
                params_.lqSize)) {
            ++stats_.dispatchStallLsq;
            return;
        }
        if ((opIsStore(op) || opIsCvap(op)) &&
            sq_.size() >= static_cast<std::size_t>(params_.sqSize)) {
            ++stats_.dispatchStallLsq;
            return;
        }

        InflightInst &in = rob_.push(nextSeq_++);
        in.di = di;
        in.traceIdx = fetchIdx_;
        in.dispatchCycle = now;
        ++fetchIdx_;
        ++stats_.dispatched;
        progress_ = true;

        const StaticInst &si = di.si;

        // EDE rename: first resolve consumer links, then record the
        // producer definition (Section IV-A1).
        if (op != Op::WaitKey && edkIsReal(si.edkUse))
            in.edeSrc = edm_.specLookup(si.edkUse);
        if (op == Op::Join && edkIsReal(si.edkUse2))
            in.edeSrc2 = edm_.specLookup(si.edkUse2);
        if (si.isEdeProducer())
            edm_.specDefine(si.edkDef, in.seq);
        if (!edeSrcOverrides_.empty()) {
            auto ov = edeSrcOverrides_.find(in.traceIdx);
            if (ov != edeSrcOverrides_.end())
                in.edeSrc = in.seq + ov->second;
        }

        // Register dependences.
        auto reg_dep = [this](RegIndex r) {
            return (r == kNoReg || r == kZeroReg) ? kNoSeq : regMap_[r];
        };
        in.regDep1 = reg_dep(si.src1);
        in.regDep2 = reg_dep(si.src2);
        in.regDepBase = reg_dep(si.base);
        if (si.writesReg())
            regMap_[si.dst] = in.seq;

        // Memory dependence: youngest older overlapping store, first
        // in the store queue, then in the write buffer.
        if (op == Op::Ldr) {
            const Addr lo = di.addr;
            const Addr hi = di.addr + si.size;
            for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
                const InflightInst *st = *it;
                if (!st->di.isStore())
                    continue;
                const Addr slo = st->di.addr;
                const Addr shi = st->di.addr + st->di.si.size;
                if (slo < hi && lo < shi) {
                    in.memDep = st->seq;
                    in.memDepCovers = slo <= lo && hi <= shi;
                    break;
                }
            }
            if (in.memDep == kNoSeq) {
                auto [seq, covers] = wb_->youngestOverlap(di.addr,
                                                          si.size);
                in.memDep = seq;
                in.memDepCovers = covers;
            }
        }

        // Per-op dispatch state.
        switch (op) {
          case Op::Nop:
            in.executed = true;
            in.completed = true;
            recordCompletion(in.traceIdx, now);
            break;
          case Op::DmbSt:
            // Modelled as gem5's LSQ does: a barrier that completes
            // once all older store-class operations have, and that
            // holds younger memory operations at issue until then.
            in.executed = true;
            incomplete_.insert(in.seq);
            incompleteDmbs_.insert(in.seq);
            dmbSeqs_.push_back(in.seq);
            break;
          case Op::WaitKey:
          case Op::WaitAllKeys:
            in.executed = true;
            incomplete_.insert(in.seq);
            break;
          case Op::DsbSy:
            incomplete_.insert(in.seq);
            incompleteDsbs_.insert(in.seq);
            break;
          case Op::Join:
            incomplete_.insert(in.seq);
            if (params_.ede == EnforceMode::WB) {
                in.executed = true; // Gated in the write buffer.
            } else {
                notExecuted_.insert(in.seq);
                iq_.push_back(&in);
                in.inIq = true;
            }
            break;
          default:
            notExecuted_.insert(in.seq);
            incomplete_.insert(in.seq);
            iq_.push_back(&in);
            in.inIq = true;
            if (op == Op::Ldr)
                lq_.push_back(&in);
            if (opIsStore(op) || opIsCvap(op))
                sq_.push_back(&in);
            if (opIsStore(op)) {
                incompleteStores_.insert(in.seq);
                if (!dmbSeqs_.empty())
                    in.dmbBarrier = dmbSeqs_.back();
            }
            if (opIsCvap(op)) {
                incompleteCvaps_.insert(in.seq);
                if (params_.dmbStCoversCvap && !dmbSeqs_.empty())
                    in.dmbBarrier = dmbSeqs_.back();
            }
            if (op == Op::BranchCond) {
                ++stats_.branches;
                const bool predicted = predictor_.predict(di.pc);
                in.mispredicted = predicted != di.taken;
            } else if (op == Op::Branch) {
                ++stats_.branches;
            }
            break;
        }

        // WAIT counters track only the post-retirement window
        // (Section IV-B2): instructions that retired before
        // completing, i.e. write-buffer residents.  They enter at
        // write-buffer insertion in retire().  Loads and issue-
        // queue-resolved JOINs complete before they can retire, so
        // they never need tracking -- and counting them at dispatch
        // would deadlock: a younger EDE-gated load tagged with key k
        // holds the counter for k, a WAIT at the ROB head waits for
        // that counter, and the load's producer cannot complete
        // because it cannot retire past the blocked WAIT.  The fuzz
        // campaign (bench/verify_fuzz) finds that wedge immediately.
    }
}

void
OoOCore::squash(InflightInst &branch, Cycle now)
{
    ++stats_.squashes;
    progress_ = true;
    const SeqNum bseq = branch.seq;
    const std::size_t redirect = branch.traceIdx + 1;

    // The queues hold ROB slots: prune them before the slots recycle.
    for (auto *queue : {&iq_, &lq_, &sq_}) {
        std::erase_if(*queue, [bseq](const InflightInst *in) {
            return in->seq > bseq;
        });
    }

    while (!rob_.empty() && rob_.back().seq > bseq) {
        InflightInst &x = rob_.back();
        ++stats_.squashedInsts;
        if (x.edeCounted)
            countersExit(x.di.si);
        if (x.loadReq != kNoReq &&
            outstandingLoads_.erase(x.loadReq)) {
            orphanReqs_.insert(x.loadReq);
        }
        rob_.popBack();
    }

    for (SeqSet *set : {&notExecuted_, &incomplete_, &incompleteStores_,
                        &incompleteCvaps_, &incompleteDsbs_,
                        &incompleteDmbs_}) {
        set->eraseAbove(bseq);
    }
    while (!dmbSeqs_.empty() && dmbSeqs_.back() > bseq)
        dmbSeqs_.pop_back();

    // EDM recovery: non-speculative state plus replay of surviving
    // in-flight producer definitions (Section V-A1).
    std::vector<std::pair<Edk, SeqNum>> survivors;
    for (const InflightInst &in : rob_) {
        if (in.di.si.isEdeProducer() && incomplete_.contains(in.seq))
            survivors.emplace_back(in.di.si.edkDef, in.seq);
    }
    edm_.squashRestore(survivors);

    // Register map recovery.
    regMap_.fill(kNoSeq);
    for (const InflightInst &in : rob_) {
        if (in.di.si.writesReg())
            regMap_[in.di.si.dst] = in.seq;
    }

    branch.mispredicted = false;
    fetchIdx_ = redirect;
    fetchResumeAt_ = now + params_.mispredictPenalty;
}

// --- Runtime EDK stall analyzer -----------------------------------
//
// Invoked when no instruction has completed or retired for
// edkStallCycles.  Starting from every EDE-gated waiter (issue-queue
// entries held by eDepReady, write-buffer entries held by srcID
// tags), it walks the full blocking graph -- EDE links, register and
// memory dependences, fence gates, retirement order, write-buffer
// line/DMB ordering -- classifying each node as *progressing* (an
// event already in flight will advance it: an outstanding memory
// request, a scheduled execution event, an active push) or *stuck*
// (every path ends in a link that can never resolve).  A node
// encountered grey on the DFS stack is a dependence cycle.  This
// separates a consumer that merely waits out a ~1500-cycle NVM media
// write (External) from one wedged on corrupted EDM/srcID state
// (Stuck).

bool
OoOCore::edkNodeProgressing(SeqNum s,
                            std::vector<SeqNum> &blockers) const
{
    if (!incomplete_.contains(s))
        return true;

    // Write-buffer resident?
    for (const WbEntry &e : wb_->entries()) {
        if (e.seq != s)
            continue;
        if (e.pushing)
            return true;
        if (e.srcId != kNoSeq)
            blockers.push_back(e.srcId);
        if (e.srcId2 != kNoSeq)
            blockers.push_back(e.srcId2);
        wb_->appendLineBlockers(s, blockers);
        if (e.dmbBarrier != kNoSeq) {
            const SeqNum st = incompleteStores_.min();
            if (st < e.dmbBarrier && st != s)
                blockers.push_back(st);
            if (params_.dmbStCoversCvap) {
                const SeqNum cv = incompleteCvaps_.min();
                if (cv < e.dmbBarrier && cv != s)
                    blockers.push_back(cv);
            }
        }
        // No gate left: the push starts as soon as the L1D accepts
        // it, which is backpressure, not a dependence.
        return blockers.empty();
    }

    const InflightInst *inp = rob_.find(s);
    if (!inp)
        return false; // Incomplete but untracked: a dangling link.
    const InflightInst &in = *inp;
    if (in.completed)
        return true;
    if (in.di.isLoad() && in.loadReq != kNoReq)
        return true; // The memory system owes a response.
    if (in.issued && !in.executed)
        return true; // A pendingExec event will fire.

    const Op op = in.di.op();
    switch (op) {
      case Op::DmbSt: {
        if (incompleteStores_.min() < s)
            blockers.push_back(incompleteStores_.min());
        if (params_.dmbStCoversCvap && incompleteCvaps_.min() < s)
            blockers.push_back(incompleteCvaps_.min());
        return blockers.empty();
      }
      case Op::DsbSy: {
        if (incomplete_.min() < s)
            blockers.push_back(incomplete_.min());
        return blockers.empty();
      }
      case Op::WaitKey:
      case Op::WaitAllKeys: {
        // Blocked on the WAIT counter holders, plus in-order
        // retirement behind the ROB head.
        const Edk key = in.di.si.edkUse;
        auto holds = [op, key](const StaticInst &si) {
            if (op == Op::WaitAllKeys)
                return true;
            return si.edkDef == key || si.edkUse == key ||
                   si.edkUse2 == key;
        };
        for (const InflightInst &o : rob_) {
            if (o.seq >= s)
                break;
            if (o.edeCounted && holds(o.di.si))
                blockers.push_back(o.seq);
        }
        for (const WbEntry &e : wb_->entries()) {
            if (e.seq < s && e.edeCounted && holds(e.si))
                blockers.push_back(e.seq);
        }
        if (!rob_.empty() && rob_.front().seq != s)
            blockers.push_back(rob_.front().seq);
        return blockers.empty();
      }
      default:
        break;
    }

    if (in.inIq) {
        if (gatesAtIssue(in)) {
            if (incomplete_.contains(in.edeSrc))
                blockers.push_back(in.edeSrc);
            if (incomplete_.contains(in.edeSrc2))
                blockers.push_back(in.edeSrc2);
        }
        for (SeqNum dep : {in.regDep1, in.regDep2, in.regDepBase}) {
            if (notExecuted_.contains(dep))
                blockers.push_back(dep);
        }
        if (op == Op::Ldr) {
            if (notExecuted_.contains(in.memDep)) {
                blockers.push_back(in.memDep);
            } else if (incomplete_.contains(in.memDep) &&
                       !in.memDepCovers) {
                blockers.push_back(in.memDep);
            }
        }
        if (incompleteDsbs_.min() < s)
            blockers.push_back(incompleteDsbs_.min());
        if (in.di.isMemRef() && incompleteDmbs_.min() < s)
            blockers.push_back(incompleteDmbs_.min());
        // No gate: only functional-unit bandwidth holds it back.
        return blockers.empty();
    }

    // Executed, waiting to retire: behind the ROB head, or (at the
    // head) on a free write-buffer slot.
    if (!rob_.empty() && rob_.front().seq != s) {
        blockers.push_back(rob_.front().seq);
        return false;
    }
    if (wb_->full() && !wb_->entries().empty()) {
        blockers.push_back(wb_->entries().front().seq);
        return false;
    }
    return true;
}

bool
OoOCore::edkClassify(SeqNum s, EdkWalk &walk) const
{
    auto c = walk.color.find(s);
    if (c != walk.color.end()) {
        if (c->second == 1) {
            // Grey on the DFS stack: a genuine dependence cycle.
            if (walk.cycle.empty()) {
                auto pos = std::find(walk.stack.begin(),
                                     walk.stack.end(), s);
                walk.cycle.assign(pos, walk.stack.end());
            }
            return false;
        }
        return walk.progressing.at(s);
    }
    walk.color[s] = 1;
    walk.stack.push_back(s);

    std::vector<SeqNum> blockers;
    bool prog = edkNodeProgressing(s, blockers);
    if (!prog) {
        if (!blockers.empty())
            walk.waitsOn[s] = blockers.front();
        prog = !blockers.empty();
        for (SeqNum b : blockers) {
            if (!edkClassify(b, walk))
                prog = false;
        }
    }

    walk.stack.pop_back();
    walk.color[s] = 2;
    walk.progressing[s] = prog;
    return prog;
}

EdkChainNode
OoOCore::edkChainNode(SeqNum s, const EdkWalk &walk) const
{
    EdkChainNode n;
    n.seq = s;
    auto w = walk.waitsOn.find(s);
    if (w != walk.waitsOn.end())
        n.waitsOn = w->second;
    if (const InflightInst *in = rob_.find(s)) {
        n.traceIdx = in->traceIdx;
        n.op = in->di.op();
        return n;
    }
    for (const WbEntry &e : wb_->entries()) {
        if (e.seq == s) {
            n.traceIdx = e.traceIdx;
            n.op = e.si.op;
            break;
        }
    }
    return n;
}

OoOCore::EdkStallAnalysis
OoOCore::analyzeEdkStall()
{
    EdkStallAnalysis a;

    std::vector<SeqNum> roots;
    for (const InflightInst &in : rob_) {
        if (in.inIq && gatesAtIssue(in) && !edeIssueReady(in))
            roots.push_back(in.seq);
    }
    for (const WbEntry &e : wb_->entries()) {
        if (e.srcId != kNoSeq || e.srcId2 != kNoSeq)
            roots.push_back(e.seq);
    }
    if (roots.empty())
        return a; // NotEde: nothing is waiting on an EDE link.

    EdkWalk walk;
    SeqNum oldest_stuck = kNoSeq;
    for (SeqNum r : roots) {
        if (!edkClassify(r, walk) &&
            (oldest_stuck == kNoSeq || r < oldest_stuck)) {
            oldest_stuck = r;
        }
    }
    if (oldest_stuck == kNoSeq) {
        a.cls = EdkStallClass::External;
        return a;
    }

    a.cls = EdkStallClass::Stuck;
    a.cycleFound = !walk.cycle.empty();
    a.release = oldest_stuck;

    if (a.cycleFound) {
        for (SeqNum s : walk.cycle)
            a.chain.push_back(edkChainNode(s, walk));
    } else {
        SeqNum s = oldest_stuck;
        for (int depth = 0; s != kNoSeq && depth < 32; ++depth) {
            a.chain.push_back(edkChainNode(s, walk));
            auto w = walk.waitsOn.find(s);
            s = w == walk.waitsOn.end() ? kNoSeq : w->second;
        }
    }

    // Fence semantics for degrade mode: release only once every
    // older completable instruction has drained, exactly what a DSB
    // SY before the wedged consumer would have waited for.
    a.releasableNow = true;
    for (SeqNum s : incomplete_) {
        if (s >= a.release)
            break;
        if (edkClassify(s, walk)) {
            a.releasableNow = false;
            break;
        }
    }
    return a;
}

void
OoOCore::applyEdkDegrade(const EdkStallAnalysis &a, Cycle now)
{
    if (!a.releasableNow)
        return; // Re-checked after the next stall window.
    bool cleared = false;
    if (InflightInst *in = rob_.find(a.release)) {
        if (in->inIq &&
            (in->edeSrc != kNoSeq || in->edeSrc2 != kNoSeq)) {
            in->edeSrc = kNoSeq;
            in->edeSrc2 = kNoSeq;
            cleared = true;
        }
    }
    if (!cleared)
        cleared = wb_->clearEdeGates(a.release);
    if (cleared) {
        ++stats_.edkFencesSynthesized;
        // Releasing the gate is forward progress; the watchdog and
        // the analyzer both re-arm.  Flagging progress also keeps the
        // skip-ahead loop from jumping past the newly eligible work.
        lastProgressCycle_ = now;
        progress_ = true;
        ede_warn("EDK degrade: unresolvable dependence on seq ",
                 a.release, " converted to fence semantics at cycle ",
                 now);
    }
}

SimError
OoOCore::buildSimError(SimErrorKind kind, Cycle now) const
{
    SimError e;
    e.kind = kind;
    e.cycle = now;
    e.lastProgressCycle = lastProgressCycle_;
    e.fetchIdx = fetchIdx_;
    e.traceSize = trace_ ? trace_->size() : 0;
    e.robOccupancy = rob_.size();
    e.iqOccupancy = iq_.size();
    e.wbOccupancy = wb_->occupancy();

    const std::size_t head_n = std::min<std::size_t>(rob_.size(), 8);
    for (std::size_t i = 0; i < head_n; ++i) {
        const InflightInst &in = rob_[i];
        RobHeadInfo r;
        r.seq = in.seq;
        r.traceIdx = in.traceIdx;
        r.op = in.di.op();
        r.addr = in.di.addr;
        r.inIq = in.inIq;
        r.issued = in.issued;
        r.executed = in.executed;
        r.completed = in.completed;
        e.robHead.push_back(r);
    }

    for (const InflightInst *inp : iq_) {
        if (e.iqWaits.size() >= 8)
            break;
        const InflightInst &in = *inp;
        IqWaitInfo w;
        w.seq = in.seq;
        w.op = in.di.op();
        w.regsReady = regsReady(in);
        w.edeGated = gatesAtIssue(in) && !edeIssueReady(in);
        w.edeSrc = in.edeSrc;
        w.edeSrc2 = in.edeSrc2;
        w.dsbGated = in.seq > incompleteDsbs_.min();
        e.iqWaits.push_back(w);
    }

    for (const WbEntry &we : wb_->entries()) {
        WbChainInfo c;
        c.seq = we.seq;
        c.op = we.si.op;
        c.addr = we.addr;
        c.srcId = we.srcId;
        c.srcId2 = we.srcId2;
        c.dmbBarrier = we.dmbBarrier;
        c.pushing = we.pushing;
        e.wbChain.push_back(c);
    }

    for (int k = 1; k < kNumEdks; ++k) {
        const Edk key = static_cast<Edk>(k);
        const SeqNum spec = edm_.spec().lookup(key);
        const SeqNum nonspec = edm_.nonspec().lookup(key);
        if (spec == kNoSeq && nonspec == kNoSeq)
            continue;
        e.edmLinks.push_back(EdmLinkInfo{key, spec, nonspec});
    }
    return e;
}

bool
OoOCore::finished() const
{
    // The program is done when every instruction has completed (the
    // write buffer drains to the coherence/persistence point).  The
    // NVM on-DIMM buffer may still be pushing lines to the media in
    // the background; that drain is not part of execution time.
    return fetchIdx_ >= trace_->size() && rob_.empty() &&
           wb_->empty() && outstandingLoads_.empty() &&
           orphanReqs_.empty();
}

void
OoOCore::tickPipeline(Cycle now, HostProfile *timed)
{
    {
        PhaseTimer t(timed, &HostProfile::memNanos);
        pollLoads(now);
    }
    {
        PhaseTimer t(timed, &HostProfile::wbNanos);
        execWriteback(now);
        wb_->tick(now);
        checkDmbCompletion(now);
        checkDsbCompletion(now);
        retire(now);
    }
    {
        PhaseTimer t(timed, &HostProfile::issueNanos);
        issue(now);
    }
    {
        PhaseTimer t(timed, &HostProfile::fetchNanos);
        dispatch(now);
    }
    if (xcore_)
        waitSeen_ = xcore_->changes();
}

bool
OoOCore::runChecks(Cycle now)
{
    // Runtime EDK stall analyzer: much tighter than the watchdog,
    // so an unresolvable dependence is reported (or degraded to
    // fence semantics) within one edkStallCycles window instead
    // of after the full watchdog wait.
    if (params_.ede != EnforceMode::None &&
        now - lastProgressCycle_ > params_.edkStallCycles &&
        now >= lastEdkCheckCycle_ + params_.edkStallCycles) {
        lastEdkCheckCycle_ = now;
        ++stats_.edkStallChecks;
        const EdkStallAnalysis a = analyzeEdkStall();
        if (a.cls == EdkStallClass::Stuck) {
            ++stats_.edkStuckDetected;
            if (params_.edkRecoveryMode == EdkRecoveryMode::Degrade) {
                applyEdkDegrade(a, now);
            } else {
                simError_ = buildSimError(
                    SimErrorKind::EdkDependenceCycle, now);
                simError_.edkChain = a.chain;
                return true;
            }
        } else if (a.cls == EdkStallClass::External) {
            ++stats_.edkExternalStalls;
        }
    }
    // No panic on a wedged pipeline: the watchdog (and, as a hard
    // backstop, maxCycles) stops the run and leaves a structured
    // diagnostic in simError_ for the caller to report.
    if (now - lastProgressCycle_ > params_.watchdogCycles) {
        simError_ =
            buildSimError(SimErrorKind::WatchdogNoProgress, now);
        return true;
    }
    if (now > params_.maxCycles) {
        simError_ =
            buildSimError(SimErrorKind::MaxCyclesExceeded, now);
        return true;
    }
    return false;
}

Cycle
OoOCore::timedEventCycle(Cycle now) const
{
    Cycle next = kNoCycle;

    // Core-scheduled execution writebacks.
    if (!pendingExec_.empty())
        next = std::max(now, pendingExec_.top().due);

    // The fetch redirect after a squash.  The tick just executed ran
    // at cycle now-1, so dispatch was redirect-gated iff
    // fetchResumeAt_ >= now -- and the gate lifts at fetchResumeAt_
    // itself (== now means the very next tick dispatches).  When
    // fetchResumeAt_ < now the frontend was not gated and dispatch
    // stalled structurally, which only core progress can clear, so
    // the window is uniform and needs no event.
    if (fetchIdx_ < trace_->size() && fetchResumeAt_ >= now)
        next = std::min(next, fetchResumeAt_);
    return next;
}

Cycle
OoOCore::skipTarget(Cycle now) const
{
    // Component hints.  Every hint is conservative-early: a component
    // may advertise a cycle at which nothing happens after all, but
    // must never become actionable *before* its hint (DESIGN.md
    // section 10).  kNoCycle means "no intrinsic event".
    const Cycle target = std::min(wb_->nextEventCycle(now),
                                  timedEventCycle(now));

    // The run-loop checks are cycle-count triggered, not event
    // triggered: jump exactly onto their first firing cycle so
    // analyzer invocations, degrade releases and watchdog aborts land
    // on the same cycle as under reference ticking.
    return std::min(target, std::max(now, checkCycle()));
}

void
OoOCore::replayDeadTicks(Cycle skipped)
{
    const StallSnapshot &pre = tickStart_;
    stats_.dispatchStallRob += (stats_.dispatchStallRob - pre.rob) * skipped;
    stats_.dispatchStallIq += (stats_.dispatchStallIq - pre.iq) * skipped;
    stats_.dispatchStallLsq += (stats_.dispatchStallLsq - pre.lsq) * skipped;
    stats_.retireStallWbFull +=
        (stats_.retireStallWbFull - pre.wbFull) * skipped;
    const WriteBufferStats &wb = wb_->stats();
    wb_->replayGateStalls((wb.srcIdGated - pre.wb.srcIdGated) * skipped,
                          (wb.lineGated - pre.wb.lineGated) * skipped,
                          (wb.dmbGated - pre.wb.dmbGated) * skipped);
    stats_.issueHist.sample(0, skipped); // issue() saw 0 each tick.
}

void
OoOCore::beginRun(const Trace &trace)
{
    ede_assert(!ran_, "a core runs once; build a new core");
    ran_ = true;
    trace_ = &trace;
    if (recordCompletions_)
        completionCycles_.assign(trace.size(), kNoCycle);
}

} // namespace ede
