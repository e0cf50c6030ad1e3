/**
 * @file
 * The persistence framework (mini-PMDK).
 *
 * This layer plays the role the paper gives to "framework code"
 * (Figures 1, 2, 7): applications call transactional writes, and the
 * framework transparently emits the undo-logging and persist-ordering
 * instruction patterns.  Because the framework is the only place
 * persist ordering is expressed, it is also where Table III's
 * configurations are lowered:
 *
 *  - Config::B  : DC CVAP + DSB SY            (Figure 2)
 *  - Config::SU : DC CVAP + DMB ST            (store-only; UNSAFE --
 *                 DMB ST does not order DC CVAP, Section II-A)
 *  - Config::IQ / Config::WB : EDE key variants (Figure 7),
 *                 WAIT_KEY for the commit barriers
 *  - Config::U  : DC CVAP only                (no ordering; UNSAFE)
 *
 * The framework executes functionally against the volatile memory
 * image while emitting the dynamic micro-op stream, so data structure
 * contents are real and the emitted trace carries real addresses and
 * store values.
 */

#ifndef EDE_NVM_FRAMEWORK_HH
#define EDE_NVM_FRAMEWORK_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "mem/memory_image.hh"
#include "nvm/heap.hh"
#include "nvm/undo_log.hh"
#include "sim/config.hh"
#include "trace/builder.hh"

namespace ede {

/**
 * One transactional write's ordering obligation, recorded for the
 * crash-consistency auditor: the element store must not become
 * visible before the log-entry persist completes.
 */
struct PersistObligation
{
    std::size_t logCvapIdx = 0;  ///< Trace index of the log DC CVAP.
    std::size_t dataStrIdx = 0;  ///< Trace index of the element store.
    std::size_t dataCvapIdx = 0; ///< Trace index of the element DC CVAP.
};

/** EDK assignments used by the framework's lowering. */
namespace fwkeys {
inline constexpr Edk kLogEntry = 1;   ///< Log persist -> element store.
inline constexpr Edk kData = 2;       ///< Tags element persists.
inline constexpr Edk kCommit = 3;     ///< Commit-record persist.
inline constexpr Edk kZeroes = 4;     ///< Tags log-truncation persists.
inline constexpr Edk kStateClear = 5; ///< State-word clear persist.

/**
 * Keys 6..15 rotate across range snapshots: every line persist of a
 * snapshot produces the range's key, and stores into the range
 * consume it.  A consumer therefore orders behind the *newest*
 * producer; older snapshot lines were pushed earlier with the same
 * accept latency and complete no later, so the undo invariant holds
 * (the persist-ordering audit verifies this on every run).
 */
inline constexpr Edk kRangeFirst = 6;
inline constexpr int kRangeCount = 10;
} // namespace fwkeys

/** The persistence framework. */
class NvmFramework
{
  public:
    /**
     * @param cfg     Table III configuration to lower to
     * @param builder trace sink
     * @param image   functional (volatile) memory image
     * @param heap    persistent allocator
     * @param log     undo log placement
     */
    NvmFramework(Config cfg, TraceBuilder &builder, MemoryImage &image,
                 PersistentHeap &heap, UndoLogLayout log);

    /** @name Failure-atomic regions (Figure 1(b) semantics). */
    /// @{
    void txBegin();

    /**
     * Undo-log then update one persistent 64-bit location -- the
     * operator= of Figure 1(b), emitting the Figure 4 pattern.
     */
    void pWriteU64(Addr dst, std::uint64_t value);

    /**
     * PMDK tx_add_range semantics: snapshot the whole object
     * [range_base, range_base + 8*range_words) into the undo log the
     * first time the transaction touches it, then write @p dst.
     * Subsequent writes into the same range skip the logging.
     */
    void pWriteU64InRange(Addr dst, std::uint64_t value,
                          Addr range_base, std::size_t range_words);

    void txCommit();

    bool inTx() const { return inTx_; }
    /// @}

    /** @name Reads and compute emitted by application code. */
    /// @{
    /**
     * Emit a 64-bit load.  @p base names the register holding the
     * pointer (chain it from a previous load to model pointer
     * chasing); kNoReg materializes the address first.
     * @return the destination register; *out receives the value.
     */
    RegIndex loadU64(Addr src, RegIndex base = kNoReg,
                     std::uint64_t *out = nullptr);

    /** Materialize an address into a register. */
    RegIndex movAddr(Addr a);

    /** Emit @p n independent single-cycle ALU ops (address math). */
    void compute(int n = 1);

    /** Emit a conditional branch at site @p site comparing two regs. */
    void branchCmp(const std::string &site, RegIndex a, RegIndex b,
                   bool taken);
    /// @}

    /** @name Non-transactional initialization helpers. */
    /// @{
    /**
     * Backdoor pool initialization: (addr, value, warm level).  The
     * harness wires this to write the durable images and warm the
     * caches without emitting instructions -- the equivalent of
     * opening an already-created pool (functional warmup).
     */
    using BackdoorFn =
        std::function<void(Addr, std::uint64_t, int)>;

    /** Install the backdoor (harness use). */
    void setBackdoor(BackdoorFn fn) { backdoor_ = std::move(fn); }

    /**
     * Initialize one persistent word through the backdoor; the line
     * is made durable and cache-resident down to @p warm_level.
     */
    void backdoorStoreU64(Addr dst, std::uint64_t value,
                          int warm_level = 3);

    /** Plain store (functional + trace), no logging. */
    void rawStoreU64(Addr dst, std::uint64_t value);

    /** Persist a line (plain DC CVAP, no ordering keys). */
    void persistLine(Addr addr);

    /**
     * Touch every undo-log line once (PMDK zeroes its per-lane ulogs
     * when a pool is opened, leaving them cache-resident).
     */
    void warmUndoLog();

    /** Full barrier used to close the setup phase (all configs). */
    void setupFence();
    /// @}

    /** @name Access for applications and harnesses. */
    /// @{
    MemoryImage &image() { return image_; }
    PersistentHeap &heap() { return heap_; }
    TraceBuilder &builder() { return builder_; }
    Config config() const { return cfg_; }
    const UndoLogLayout &logLayout() const { return log_; }
    const std::vector<PersistObligation> &obligations() const
    {
        return obligations_;
    }
    std::uint64_t txCount() const { return txCount_; }

    /**
     * Trace index of each transaction's state-clear persist (the last
     * durable step of its commit).  Once element i completes, the
     * first i+1 transactions are committed and truncated -- the crash
     * campaign stratifies its crash points over these boundaries.
     */
    const std::vector<std::size_t> &commitMarks() const
    {
        return commitMarks_;
    }
    /// @}

  private:
    /**
     * Emit the snapshot of a fresh range under chain key @p key;
     * @return the trace index of its last log-line persist.
     */
    std::size_t emitRangeSnapshot(Addr base, std::size_t words,
                                  Edk key);

    Config cfg_;
    TraceBuilder &builder_;
    MemoryImage &image_;
    PersistentHeap &heap_;
    UndoLogLayout log_;
    TempRegPool temps_;
    BackdoorFn backdoor_;
    bool inTx_ = false;
    std::uint64_t entriesUsed_ = 0; ///< Appends in the open tx.
    std::set<Addr> loggedWords_;    ///< Dedup per tx (PMDK-like).
    std::map<Addr, Edk> loggedRanges_;         ///< Range -> chain key.
    std::map<Addr, std::size_t> rangeCvapIdx_; ///< Last snapshot cvap.
    std::uint32_t rangeKeyCursor_ = 0;
    std::uint64_t logCursor_ = 0;   ///< Rotating allocation cursor.
    std::uint64_t txCount_ = 0;
    std::vector<PersistObligation> obligations_;
    std::vector<std::size_t> commitMarks_;
};

} // namespace ede

#endif // EDE_NVM_FRAMEWORK_HH
