#include "nvm/framework.hh"

#include <set>

#include "common/logging.hh"
#include "trace/lowering.hh"

namespace ede {

NvmFramework::NvmFramework(Config cfg, TraceBuilder &builder,
                           MemoryImage &image, PersistentHeap &heap,
                           UndoLogLayout log)
    : cfg_(cfg), builder_(builder), image_(image), heap_(heap), log_(log)
{
    ede_assert(log_.stateAddr != kNoAddr && log_.capacity > 0,
               "framework needs a placed undo log");
    ede_assert((log_.entriesBase & 0x3f) == 0,
               "log entries must start on a cache line");
}

void
NvmFramework::txBegin()
{
    ede_assert(!inTx_, "transactions do not nest");
    inTx_ = true;
    entriesUsed_ = 0;
    if (configUsesEde(cfg_)) {
        // The previous transaction's state-word clear must be durable
        // before this transaction's first update can persist.
        builder_.waitKey(fwkeys::kStateClear);
    }
}

void
NvmFramework::pWriteU64(Addr dst, std::uint64_t value)
{
    ede_assert(inTx_, "pWriteU64 outside a failure-atomic region");
    ede_assert(entriesUsed_ < log_.capacity, "undo log overflow: raise "
               "UndoLogLayout::capacity");
    ede_assert(dst != 0, "address 0 is reserved as the empty-entry "
               "marker");

    // Slots are allocated from a rotating cursor, as PMDK's ulog
    // does: successive transactions append to fresh (cache-cold)
    // lines rather than rewriting one hot slot set.
    const bool ede = configUsesEde(cfg_);

    // PMDK-style snapshot dedup: a location already undo-logged in
    // this transaction keeps its original (oldest) entry, so only
    // the update half of Figure 4 is emitted.  Ordering stays
    // intact: the repeated store overlaps the first one, and the
    // write buffer drains overlapping stores in order, so it is
    // transitively ordered behind the original log persist.
    if (loggedWords_.count(dst)) {
        const RegIndex r_addr2 = temps_.get();
        builder_.movImm(r_addr2, static_cast<std::int64_t>(dst));
        const RegIndex r_new2 = temps_.get();
        builder_.movImm(r_new2, static_cast<std::int64_t>(value));
        builder_.str(r_new2, r_addr2, dst, value);
        builder_.cvap(r_addr2, dst,
                      ede ? EdkOps{fwkeys::kData, 0} : EdkOps{});
        image_.write<std::uint64_t>(dst, value);
        return;
    }
    loggedWords_.insert(dst);

    const std::uint64_t old_val = image_.read<std::uint64_t>(dst);
    const Addr slot =
        log_.entryAddr((logCursor_ + entriesUsed_) % log_.capacity);
    ++entriesUsed_;

    // Framework bookkeeping around the persisted write: the
    // operator= dispatch, TLS transaction lookup and the log-slot
    // reserve of Figure 1(b)/2(a) compile to a short dependent
    // sequence before the Figure 4 pattern proper.
    RegIndex chain = temps_.get();
    builder_.movImm(chain, static_cast<std::int64_t>(slot));
    builder_.ldr(chain, chain, log_.stateAddr); // TX state lookup.
    for (int i = 0; i < 6; ++i)
        builder_.alu(chain, chain, kNoReg, 1);

    // log_value (Figures 2(a) / 7(a)), compiled as in Figure 4.
    const RegIndex r_addr = temps_.get();
    builder_.movImm(r_addr, static_cast<std::int64_t>(dst));
    const RegIndex r_old = temps_.get();
    builder_.ldr(r_old, r_addr, dst);
    const RegIndex r_slot = temps_.get();
    builder_.movImm(r_slot, static_cast<std::int64_t>(slot));
    // reserve_uint64(): the slot bump the framework performs.
    builder_.alu(r_slot, r_slot, kNoReg, 0);
    // Fold the {addr, old value} checksum into the sealed addr word
    // before the pair store (torn-entry detection at recovery).
    const std::uint64_t sealed = sealUndoEntry(dst, old_val);
    const RegIndex r_seal = temps_.get();
    builder_.alu(r_seal, r_addr, r_old);
    builder_.stp(r_seal, r_old, r_slot, slot, sealed, old_val);
    PersistObligation ob;
    ob.logCvapIdx = builder_.cvap(
        r_slot, slot, ede ? EdkOps{fwkeys::kLogEntry, 0} : EdkOps{});
    emitOrderingToken(builder_, cfg_);
    image_.write<std::uint64_t>(slot, sealed);
    image_.write<std::uint64_t>(slot + 8, old_val);

    // update_value (Figures 2(b) / 7(b)).
    const RegIndex r_new = temps_.get();
    builder_.movImm(r_new, static_cast<std::int64_t>(value));
    ob.dataStrIdx = builder_.str(
        r_new, r_addr, dst, value, 0,
        ede ? EdkOps{0, fwkeys::kLogEntry} : EdkOps{});
    ob.dataCvapIdx = builder_.cvap(
        r_addr, dst, ede ? EdkOps{fwkeys::kData, 0} : EdkOps{});
    image_.write<std::uint64_t>(dst, value);
    obligations_.push_back(ob);
}

std::size_t
NvmFramework::emitRangeSnapshot(Addr base, std::size_t words, Edk key)
{
    const bool ede = configUsesEde(cfg_);
    std::size_t last_cvap = 0;
    Addr pending_log_line = kNoAddr;
    auto flush_log_line = [&]() {
        if (pending_log_line == kNoAddr)
            return;
        const RegIndex r_line = temps_.get();
        builder_.movImm(r_line,
                        static_cast<std::int64_t>(pending_log_line));
        // Every snapshot line persists under the range key; the
        // consumer links to the newest producer.  Pushes start
        // oldest-first and pay the same accept latency, so earlier
        // lines complete no later -- the crash-consistency audit
        // checks this holds on every run.
        last_cvap = builder_.cvap(r_line, pending_log_line,
                                  ede ? EdkOps{key, 0} : EdkOps{});
        pending_log_line = kNoAddr;
    };

    for (std::size_t w = 0; w < words; ++w) {
        const Addr target = base + 8 * w;
        loggedWords_.insert(target);
        const std::uint64_t old_val =
            image_.read<std::uint64_t>(target);
        ede_assert(entriesUsed_ < log_.capacity,
                   "undo log overflow: raise capacity");
        const Addr slot = log_.entryAddr(
            (logCursor_ + entriesUsed_) % log_.capacity);
        ++entriesUsed_;

        const RegIndex r_addr = temps_.get();
        builder_.movImm(r_addr, static_cast<std::int64_t>(target));
        const RegIndex r_old = temps_.get();
        builder_.ldr(r_old, r_addr, target);
        const RegIndex r_slot = temps_.get();
        builder_.movImm(r_slot, static_cast<std::int64_t>(slot));
        const std::uint64_t sealed = sealUndoEntry(target, old_val);
        const RegIndex r_seal = temps_.get();
        builder_.alu(r_seal, r_addr, r_old);
        builder_.stp(r_seal, r_old, r_slot, slot, sealed, old_val);
        image_.write<std::uint64_t>(slot, sealed);
        image_.write<std::uint64_t>(slot + 8, old_val);

        const Addr line = slot & ~63ull;
        if (pending_log_line != kNoAddr && pending_log_line != line)
            flush_log_line();
        pending_log_line = line;
    }
    flush_log_line();
    emitOrderingToken(builder_, cfg_); // One per snapshot.
    return last_cvap;
}

void
NvmFramework::pWriteU64InRange(Addr dst, std::uint64_t value,
                               Addr range_base,
                               std::size_t range_words)
{
    ede_assert(inTx_, "pWriteU64InRange outside a failure-atomic "
               "region");
    ede_assert(dst >= range_base && dst < range_base + 8 * range_words,
               "write outside its declared range");
    const bool ede = configUsesEde(cfg_);

    auto it = loggedRanges_.find(range_base);
    Edk key;
    if (it == loggedRanges_.end()) {
        key = static_cast<Edk>(
            fwkeys::kRangeFirst +
            (rangeKeyCursor_++ % fwkeys::kRangeCount));
        loggedRanges_.emplace(range_base, key);
        rangeCvapIdx_[range_base] =
            emitRangeSnapshot(range_base, range_words, key);
    } else {
        key = it->second;
    }

    PersistObligation ob;
    ob.logCvapIdx = rangeCvapIdx_[range_base];
    const RegIndex r_addr = temps_.get();
    builder_.movImm(r_addr, static_cast<std::int64_t>(dst));
    const RegIndex r_new = temps_.get();
    builder_.movImm(r_new, static_cast<std::int64_t>(value));
    ob.dataStrIdx = builder_.str(r_new, r_addr, dst, value, 0,
                                 ede ? EdkOps{0, key} : EdkOps{});
    ob.dataCvapIdx = builder_.cvap(
        r_addr, dst, ede ? EdkOps{fwkeys::kData, 0} : EdkOps{});
    image_.write<std::uint64_t>(dst, value);
    obligations_.push_back(ob);
}

void
NvmFramework::txCommit()
{
    ede_assert(inTx_, "txCommit without txBegin");
    const bool ede = configUsesEde(cfg_);

    // Step 1: every transactional update is durable.
    emitDrain(builder_, cfg_, fwkeys::kData);

    // Step 2: commit record.
    const RegIndex r_state = temps_.get();
    builder_.movImm(r_state, static_cast<std::int64_t>(log_.stateAddr));
    const RegIndex r_val = temps_.get();
    builder_.movImm(r_val, static_cast<std::int64_t>(kTxCommitted));
    builder_.str(r_val, r_state, log_.stateAddr, kTxCommitted);
    builder_.cvap(r_state, log_.stateAddr,
                  ede ? EdkOps{fwkeys::kCommit, 0} : EdkOps{});
    emitOrderingToken(builder_, cfg_);
    image_.write<std::uint64_t>(log_.stateAddr, kTxCommitted);

    // Step 3: truncate the log (zero the addr word of each used
    // entry, one persist per touched line).  Under EDE each zeroing
    // store consumes the commit-record persist (one-to-many).
    const RegIndex r_zero = temps_.get();
    builder_.movImm(r_zero, 0);
    std::set<Addr> lines;
    for (std::uint64_t i = 0; i < entriesUsed_; ++i) {
        const Addr entry =
            log_.entryAddr((logCursor_ + i) % log_.capacity);
        const RegIndex r_entry = temps_.get();
        builder_.movImm(r_entry, static_cast<std::int64_t>(entry));
        builder_.str(r_zero, r_entry, entry, 0, 0,
                     ede ? EdkOps{0, fwkeys::kCommit} : EdkOps{});
        image_.write<std::uint64_t>(entry, 0);
        lines.insert(entry & ~static_cast<Addr>(63));
    }
    for (Addr line : lines) {
        const RegIndex r_line = temps_.get();
        builder_.movImm(r_line, static_cast<std::int64_t>(line));
        builder_.cvap(r_line, line,
                      ede ? EdkOps{fwkeys::kZeroes, 0} : EdkOps{});
    }
    emitDrain(builder_, cfg_, fwkeys::kZeroes);

    // Step 4: back to ACTIVE.  The state-clear persist is recorded as
    // this transaction's commit mark (crash-campaign stratification).
    const RegIndex r_active = temps_.get();
    builder_.movImm(r_active, static_cast<std::int64_t>(kTxActive));
    builder_.str(r_active, r_state, log_.stateAddr, kTxActive);
    commitMarks_.push_back(
        builder_.cvap(r_state, log_.stateAddr,
                      ede ? EdkOps{fwkeys::kStateClear, 0} : EdkOps{}));
    emitOrderingToken(builder_, cfg_);
    image_.write<std::uint64_t>(log_.stateAddr, kTxActive);

    inTx_ = false;
    logCursor_ = (logCursor_ + entriesUsed_) % log_.capacity;
    entriesUsed_ = 0;
    loggedWords_.clear();
    loggedRanges_.clear();
    rangeCvapIdx_.clear();
    ++txCount_;
}

RegIndex
NvmFramework::loadU64(Addr src, RegIndex base, std::uint64_t *out)
{
    if (base == kNoReg) {
        base = temps_.get();
        builder_.movImm(base, static_cast<std::int64_t>(src));
    }
    const RegIndex dst = temps_.get();
    builder_.ldr(dst, base, src);
    const std::uint64_t v = image_.read<std::uint64_t>(src);
    if (out)
        *out = v;
    return dst;
}

RegIndex
NvmFramework::movAddr(Addr a)
{
    const RegIndex r = temps_.get();
    builder_.movImm(r, static_cast<std::int64_t>(a));
    return r;
}

void
NvmFramework::compute(int n)
{
    for (int i = 0; i < n; ++i) {
        const RegIndex r = temps_.get();
        builder_.alu(r, r, kNoReg, 1);
    }
}

void
NvmFramework::branchCmp(const std::string &site, RegIndex a, RegIndex b,
                        bool taken)
{
    builder_.branchCond(site, a, b, taken);
}

void
NvmFramework::rawStoreU64(Addr dst, std::uint64_t value)
{
    const RegIndex r_addr = temps_.get();
    builder_.movImm(r_addr, static_cast<std::int64_t>(dst));
    const RegIndex r_val = temps_.get();
    builder_.movImm(r_val, static_cast<std::int64_t>(value));
    builder_.str(r_val, r_addr, dst, value);
    image_.write<std::uint64_t>(dst, value);
}

void
NvmFramework::persistLine(Addr addr)
{
    const RegIndex r = temps_.get();
    builder_.movImm(r, static_cast<std::int64_t>(addr));
    builder_.cvap(r, addr);
}

void
NvmFramework::backdoorStoreU64(Addr dst, std::uint64_t value,
                               int warm_level)
{
    image_.write<std::uint64_t>(dst, value);
    if (backdoor_)
        backdoor_(dst, value, warm_level);
}

void
NvmFramework::warmUndoLog()
{
    // PMDK zeroes its per-lane ulogs when a pool is opened, leaving
    // them cache-resident (L2 here: bigger than L1, hot enough).
    const Addr end = log_.entryAddr(log_.capacity);
    for (Addr line = log_.stateAddr & ~63ull; line < end; line += 64)
        backdoorStoreU64(line, 0, /*warm_level=*/2);
}

void
NvmFramework::setupFence()
{
    // Setup is not part of any measured claim; every configuration
    // closes it with the same full barrier so the comparison between
    // configurations is unaffected.
    builder_.dsbSy();
}

} // namespace ede
