/**
 * @file
 * Seeded malformed-program fuzz campaign for the EDK verifier and
 * the runtime dependence-cycle detector.
 *
 * The campaign generates thousands of adversarial EDE programs and
 * enforces the verifier/pipeline contract in both directions:
 *
 *  - programs the generator built to be *well-formed* must be
 *    accepted by the static verifier, and must then run to
 *    completion on both enforcement designs (IQ and WB) with no
 *    watchdog firing, no runtime stuck-chain report, and a clean
 *    persist-ordering audit over every produced->consumed key pair;
 *
 *  - programs with *recorded malformations* must be rejected with
 *    the first error diagnostic at or after the first injection
 *    site, and -- because all static malformations are still
 *    deadlock-free to execute -- must complete under
 *    EdkRecoveryMode::Degrade with the ordering audit clean over
 *    the uncorrupted program prefix;
 *
 *  - programs carrying a *hardware-fault gadget* (a forged forward
 *    srcID link via OoOCore::corruptEdeLink, the only way this
 *    pipeline can form a genuine cycle) must pass the static
 *    verifier, be caught by the runtime detector in IQ mode well
 *    before the watchdog, complete under Degrade with at least one
 *    synthesized fence, and complete untouched in WB mode (whose
 *    insertion-time CAM check clears dangling forward tags).
 *
 * Programs are generated per-index from a splitmix-decorrelated seed
 * and run on the exp::Scheduler, so `--jobs N` is bit-identical to
 * serial execution.
 */

#ifndef EDE_VERIFY_FUZZ_HH
#define EDE_VERIFY_FUZZ_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/fields.hh"
#include "exp/worker.hh"
#include "verify/diagnostics.hh"

namespace ede {

/** Campaign configuration. */
struct FuzzOptions
{
    /** chaosCrashIndex value meaning "no chaos hook". */
    static constexpr std::size_t kNoChaos =
        static_cast<std::size_t>(-1);

    std::uint64_t seed = 1;      ///< Campaign root seed.
    std::size_t programs = 2000; ///< Programs to generate.
    std::size_t maxOps = 80;     ///< Generator length cap per program.
    unsigned jobs = 0;           ///< Worker threads; 0 = hardware.
    double malformRate = 0.45;   ///< Fraction with static malformations.
    double faultRate = 0.10;     ///< Fraction with hardware-fault gadgets.
    std::size_t maxFailures = 8; ///< Failure descriptions to keep.
    /** Dump the disassembly and diagnostics of every contract
     *  violation to stderr (debugging aid). */
    bool dumpFailures = false;

    /**
     * Fork one worker per program: a crash, hang or OOM while
     * checking one adversarial program quarantines that program
     * (tallied + reported, campaign completes) instead of killing
     * the whole campaign.  Results are bit-identical to the
     * in-process path.
     */
    bool isolate = false;

    exp::WorkerLimits limits;  ///< Per-program bounds (isolate only).
    exp::RetryPolicy retry;    ///< Transient-failure retries.

    /**
     * Test/chaos hook: the program at this index calls abort()
     * inside its isolated worker -- how tests and the CI chaos job
     * provoke a deterministic quarantine.  kNoChaos disables it.
     */
    std::size_t chaosCrashIndex = kNoChaos;
};

/** How a generated program was built. */
enum class ProgClass { WellFormed, Malformed, HardwareFault };

/** Printable name. */
constexpr std::string_view
progClassName(ProgClass cls)
{
    switch (cls) {
      case ProgClass::WellFormed: return "well-formed";
      case ProgClass::Malformed: return "malformed";
      case ProgClass::HardwareFault: return "hardware-fault";
    }
    return "<bad-prog-class>";
}

/**
 * One program's verdict plus the tallies merged into the report; an
 * isolated worker ships it back in the wire format.
 */
struct ProgResult
{
    ProgClass cls = ProgClass::WellFormed;
    bool accepted = false;
    std::string failure; ///< Empty when the contract held.
    std::array<std::uint64_t, kNumVerifyKinds> diag{};
    std::uint64_t runs = 0;
    std::uint64_t detectorReports = 0;
    std::uint64_t fencesSynthesized = 0;
    std::uint64_t externalStalls = 0;
    std::uint64_t watchdogFirings = 0;
    std::uint64_t auditChecked = 0;
    std::uint64_t auditViolations = 0;
};

void
visitFields(auto &v, FieldsOf<ProgResult> auto &r)
{
    v("cls", r.cls, progClassName);
    v("accepted", r.accepted);
    v("failure", r.failure);
    v("diag", r.diag);
    v("runs", r.runs);
    v("detector_reports", r.detectorReports);
    v("fences_synthesized", r.fencesSynthesized);
    v("external_stalls", r.externalStalls);
    v("watchdog_firings", r.watchdogFirings);
    v("audit_checked", r.auditChecked);
    v("audit_violations", r.auditViolations);
}

/** Aggregate campaign outcome. */
struct FuzzReport
{
    std::size_t programs = 0;
    std::size_t wellFormed = 0;
    std::size_t malformed = 0;
    std::size_t hardwareFault = 0;

    std::size_t accepted = 0;       ///< Verifier verdicts.
    std::size_t rejected = 0;

    /** Static diagnostics tallied across every program. */
    std::array<std::uint64_t, kNumVerifyKinds> diagnosticsByKind{};

    std::uint64_t runs = 0;             ///< Pipeline runs executed.
    std::uint64_t detectorReports = 0;  ///< Runtime stuck-chain aborts.
    std::uint64_t fencesSynthesized = 0;///< Degrade-mode gate releases.
    std::uint64_t externalStalls = 0;   ///< Long-latency classifications.
    std::uint64_t watchdogFirings = 0;  ///< Must stay zero.
    std::uint64_t auditChecked = 0;     ///< Ordering pairs audited.
    std::uint64_t auditViolations = 0;  ///< Must stay zero.

    std::size_t violations = 0; ///< Programs that broke the contract.
    std::vector<std::string> failures; ///< First few violations.

    /** Programs whose isolated worker never produced a verdict. */
    std::size_t quarantined = 0;
    std::vector<std::string> quarantineFailures; ///< First few.

    /**
     * True when every generated program honoured the contract.  A
     * quarantined program has *no* verdict, so it counts against the
     * contract: the campaign completed, but not every program was
     * checked.
     */
    bool contractHolds() const
    {
        return violations == 0 && quarantined == 0;
    }

    /** Multi-line human-readable summary. */
    std::string describe() const;
};

/** Run the campaign. */
FuzzReport runVerifyFuzz(const FuzzOptions &options);

} // namespace ede

#endif // EDE_VERIFY_FUZZ_HH
