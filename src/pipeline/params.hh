/**
 * @file
 * Out-of-order core parameters (Table I defaults: Arm A72-like).
 */

#ifndef EDE_PIPELINE_PARAMS_HH
#define EDE_PIPELINE_PARAMS_HH

#include <cstdint>
#include <string_view>

#include "common/fields.hh"
#include "common/types.hh"
#include "core/enforcement.hh"

namespace ede {

/**
 * What the core does when the runtime EDK stall analyzer concludes
 * that a dependence chain cannot resolve (a cycle through corrupted
 * EDM/srcID links, or a link to an instruction that no longer
 * exists).
 */
/**
 * How CoreGroup::run advances simulated time.
 *
 * Both modes produce bit-identical cycle counts and CoreStats; the
 * skip-ahead scheduler only jumps over cycles that are provably
 * no-ops (see DESIGN.md section 10).  Because the results are
 * identical, the mode is deliberately excluded from the result-cache
 * fingerprint.
 */
enum class TickingMode
{
    /** Resolve at core construction: Reference when the
     *  EDE_REFERENCE_TICKING environment variable is set and
     *  non-empty (and not "0"), SkipAhead otherwise. */
    Auto,
    /** Event-driven: jump dead windows to the next component hint. */
    SkipAhead,
    /** Tick every cycle (the differential oracle). */
    Reference,
};

/** Short stable name ("skip-ahead" / "reference"). */
const char *tickingModeName(TickingMode mode);

/** Map Auto to the environment-selected concrete mode. */
TickingMode resolveTickingMode(TickingMode mode);

enum class EdkRecoveryMode
{
    /** Stop the run with a structured EdkDependenceCycle SimError. */
    Report,
    /**
     * Degrade to full-fence semantics: once every older completable
     * instruction has drained, the oldest wedged consumer's EDE gates
     * are cleared so it proceeds -- exactly what a DSB SY at that
     * point would have guaranteed.  Logged and counted; the run
     * continues.
     */
    Degrade,
};

/** Printable name ("report" / "degrade"). */
constexpr std::string_view
edkRecoveryModeName(EdkRecoveryMode mode)
{
    switch (mode) {
      case EdkRecoveryMode::Report: return "report";
      case EdkRecoveryMode::Degrade: return "degrade";
    }
    return "<bad-edk-recovery-mode>";
}

/** Static core configuration. */
struct CoreParams
{
    int fetchWidth = 3;       ///< Decode width (Table I: 3-instr).
    int issueWidth = 8;       ///< Issue queue width (Section VII-B).
    int retireWidth = 3;
    int robSize = 128;
    int iqSize = 40;
    int lqSize = 16;          ///< Table I: 16-entry load queue.
    int sqSize = 16;          ///< Table I: 16-entry store queue.
    int wbSize = 16;          ///< Table I: 16-entry write buffer.
    int wbDrainPerCycle = 2;  ///< Write-buffer pushes started per cycle.

    /** Frontend refill bubble after a mispredicted branch resolves. */
    Cycle mispredictPenalty = 8;

    /** @name Functional unit counts (A72-like integer side). */
    /// @{
    int aluUnits = 2;
    int mulUnits = 1;
    int branchUnits = 1;
    int loadUnits = 1;
    int storeUnits = 1;   ///< Store/writeback address generation.
    /// @}

    /** @name Operation latencies in cycles. */
    /// @{
    Cycle aluLatency = 1;
    Cycle mulLatency = 3;
    Cycle branchLatency = 1;
    Cycle agenLatency = 1;       ///< Store/cvap address generation.
    Cycle forwardLatency = 2;    ///< Store-to-load forwarding.
    /// @}

    /** Where EDE dependences are enforced. */
    EnforceMode ede = EnforceMode::None;

    /**
     * Whether DMB ST timing conservatively covers DC CVAP as a
     * store-class operation (as gem5's LSQ does).  Architecturally
     * DMB ST does NOT order DC CVAP -- that gap is what makes the
     * paper's SU configuration unsafe -- but conservative hardware
     * stalls it anyway, which is why SU is only ~5% faster than the
     * DSB baseline in Figure 9.  Setting this false models an
     * aggressive LSQ that exploits the architectural permission.
     */
    bool dmbStCoversCvap = true;

    /** Branch predictor table size (entries, power of two). */
    std::uint32_t predictorEntries = 4096;

    /**
     * Progress watchdog: abort with a structured SimError when no
     * instruction completes or retires for this many consecutive
     * cycles.  Catches wedged pipelines (e.g. a dependence cycle the
     * fault campaign provokes) long before maxCycles would, and emits
     * a diagnostic dump instead of a panic.
     */
    Cycle watchdogCycles = 1'000'000;

    /** Hard backstop on total cycles (also a structured SimError). */
    Cycle maxCycles = 2'000'000'000;

    /**
     * Runtime EDK stall analyzer trigger: when no instruction
     * completes or retires for this many cycles, walk the live
     * EDM/srcID chains and classify the stall.  Must comfortably
     * exceed the slowest single memory operation (an NVM media write
     * is ~1500 cycles) so long-latency producers are never mistaken
     * for dependence cycles, and sit far below watchdogCycles so
     * genuine cycles are reported without the full watchdog wait.
     */
    Cycle edkStallCycles = 25'000;

    /** Response to an unresolvable EDK dependence (see enum). */
    EdkRecoveryMode edkRecoveryMode = EdkRecoveryMode::Report;

    /**
     * Cycle-loop strategy.  Results are identical in both concrete
     * modes; this knob exists for differential testing and host-perf
     * measurement, and is NOT part of the result-cache fingerprint.
     */
    TickingMode ticking = TickingMode::Auto;
};

/** Every field but `ticking`, which never changes a result. */
void
visitFields(auto &v, FieldsOf<CoreParams> auto &p)
{
    v("fetch_width", p.fetchWidth);
    v("issue_width", p.issueWidth);
    v("retire_width", p.retireWidth);
    v("rob_size", p.robSize);
    v("iq_size", p.iqSize);
    v("lq_size", p.lqSize);
    v("sq_size", p.sqSize);
    v("wb_size", p.wbSize);
    v("wb_drain_per_cycle", p.wbDrainPerCycle);
    v("mispredict_penalty", p.mispredictPenalty);
    v("alu_units", p.aluUnits);
    v("mul_units", p.mulUnits);
    v("branch_units", p.branchUnits);
    v("load_units", p.loadUnits);
    v("store_units", p.storeUnits);
    v("alu_latency", p.aluLatency);
    v("mul_latency", p.mulLatency);
    v("branch_latency", p.branchLatency);
    v("agen_latency", p.agenLatency);
    v("forward_latency", p.forwardLatency);
    v("ede", p.ede, enforceModeName);
    v("dmb_st_covers_cvap", p.dmbStCoversCvap);
    v("predictor_entries", p.predictorEntries);
    v("watchdog_cycles", p.watchdogCycles);
    v("max_cycles", p.maxCycles);
    v("edk_stall_cycles", p.edkStallCycles);
    v("edk_recovery_mode", p.edkRecoveryMode, edkRecoveryModeName);
}

} // namespace ede

#endif // EDE_PIPELINE_PARAMS_HH
