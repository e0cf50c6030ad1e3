#include "verify/fuzz.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "audit/auditor.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "exp/fields.hh"
#include "exp/scheduler.hh"
#include "mem/mem_system.hh"
#include "pipeline/core.hh"
#include "sim/session.hh"
#include "trace/builder.hh"
#include "verify/verifier.hh"

namespace ede {

namespace {

/** The generator confines itself to EDK #1..#12; #13..#15 are
 *  reserved for injections, so a use of them is provably undefined. */
constexpr Edk kMaxGenKey = 12;
constexpr Edk kReservedLo = 13;

/** One generated program plus the metadata the contract needs. */
struct GenProgram
{
    Trace trace;
    ProgClass cls = ProgClass::WellFormed;
    /** Index of the first instruction that deviates from the
     *  well-formed construction (kNoInstIdx when none). */
    std::size_t firstInjectedIdx = kNoInstIdx;
    std::size_t injections = 0;
    /** Hardware-fault gadget members (HardwareFault only). */
    std::size_t faultProducerIdx = kNoInstIdx;
    std::size_t faultConsumerIdx = kNoInstIdx;
    /** Producer -> consumer ordering obligations recorded while the
     *  program was still uncorrupted; auditable on any clean run. */
    std::vector<PersistObligation> pairs;
};

constexpr std::uint16_t
bit(Edk k)
{
    return static_cast<std::uint16_t>(1u << k);
}

/**
 * Emits one adversarial program, mirroring the verifier's per-key
 * state machine so well-formed construction is exact: every
 * deviation is deliberate and recorded.
 */
class ProgramGen
{
  public:
    ProgramGen(Rng &rng, std::size_t max_ops)
        : rng_(rng), maxOps_(std::max<std::size_t>(max_ops, 24)),
          b_(prog_.trace),
          nvmBase_(MemSystemParams{}.map.nvmBase())
    {
    }

    GenProgram
    generate(ProgClass cls)
    {
        prog_.cls = cls;
        b_.movImm(kBaseReg, 0x100000);
        if (cls == ProgClass::HardwareFault) {
            generateFaultGadget();
        } else {
            const std::size_t len = rng_.between(20, maxOps_);
            while (prog_.trace.size() < len) {
                if (cls == ProgClass::Malformed &&
                    prog_.injections < 2 && rng_.chance(0.06)) {
                    inject();
                } else {
                    emitWellFormed();
                }
            }
            // A malformed program must carry at least one injection.
            if (cls == ProgClass::Malformed && prog_.injections == 0)
                inject(/*force=*/true);
        }
        return std::move(prog_);
    }

  private:
    static constexpr RegIndex kBaseReg = 2;

    /** Mirror of the verifier's KeyState. */
    struct KeySt
    {
        enum S { Undef, Pending, Live, Resolved } s = Undef;
        std::uint16_t chain = 0;
        std::size_t defIdx = kNoInstIdx;
    };

    Addr dramLine(int i) { return 0x100000 + static_cast<Addr>(i) * 64; }
    Addr nvmLine(int i)
    {
        return nvmBase_ + 0x10000 + static_cast<Addr>(i) * 64;
    }
    Addr randDram() { return dramLine(static_cast<int>(rng_.below(8))); }
    Addr randNvm() { return nvmLine(static_cast<int>(rng_.below(8))); }

    /** Contribution a use of @p k would add, without transitioning. */
    std::uint16_t
    peekContribution(Edk k) const
    {
        const KeySt &ks = keys_[k];
        if (ks.s == KeySt::Pending || ks.s == KeySt::Live)
            return static_cast<std::uint16_t>(bit(k) | ks.chain);
        return 0;
    }

    /** Commit a use (verifier semantics) and record the obligation. */
    std::uint16_t
    useKey(Edk k, std::size_t idx)
    {
        KeySt &ks = keys_[k];
        const std::uint16_t m = peekContribution(k);
        if (ks.s == KeySt::Pending)
            ks.s = KeySt::Live;
        if (recordPairs_ && ks.defIdx != kNoInstIdx)
            prog_.pairs.push_back({ks.defIdx, idx, idx});
        return m;
    }

    void
    defineKey(Edk k, std::uint16_t depends_on, std::size_t idx)
    {
        keys_[k] = {KeySt::Pending,
                    static_cast<std::uint16_t>(depends_on & ~bit(k)),
                    idx};
    }

    template <typename Pred>
    std::optional<Edk>
    pickKey(Pred pred)
    {
        Edk cand[kMaxGenKey];
        std::size_t n = 0;
        for (Edk k = 1; k <= kMaxGenKey; ++k) {
            if (pred(keys_[k]))
                cand[n++] = k;
        }
        if (n == 0)
            return std::nullopt;
        return cand[rng_.below(n)];
    }

    std::optional<Edk>
    pickDefinable()
    {
        return pickKey([](const KeySt &k) {
            return k.s != KeySt::Pending;
        });
    }

    std::optional<Edk>
    pickConsumable()
    {
        return pickKey([](const KeySt &k) {
            return k.s != KeySt::Undef;
        });
    }

    void
    markInjected(std::size_t idx)
    {
        if (prog_.firstInjectedIdx == kNoInstIdx)
            prog_.firstInjectedIdx = idx;
        ++prog_.injections;
        recordPairs_ = false;
    }

    void
    emitWellFormed()
    {
        const std::uint64_t r = rng_.below(100);
        if (r < 12) {
            b_.str(pool_.get(), kBaseReg, randDram(), rng_.next());
        } else if (r < 20) {
            // Persist producer, optionally ordered after a live key.
            auto d = pickDefinable();
            if (!d) {
                b_.cvap(kBaseReg, randNvm());
                return;
            }
            const std::size_t idx =
                b_.cvap(kBaseReg, randNvm(), EdkOps{*d, 0});
            defineKey(*d, 0, idx);
        } else if (r < 32) {
            // Store producer, sometimes consuming another key too.
            auto d = pickDefinable();
            if (!d) {
                b_.str(pool_.get(), kBaseReg, randDram(), rng_.next());
                return;
            }
            Edk u = 0;
            if (rng_.chance(0.4)) {
                if (auto c = pickConsumable()) {
                    // Reject uses that would make the def circular.
                    if (!(peekContribution(*c) & bit(*d)))
                        u = *c;
                }
            }
            const std::size_t idx =
                b_.str(pool_.get(), kBaseReg, randNvm(), rng_.next(),
                       0, EdkOps{*d, u});
            const std::uint16_t m = u ? useKey(u, idx) : 0;
            defineKey(*d, m, idx);
        } else if (r < 44) {
            auto u = pickConsumable();
            if (!u) {
                b_.str(pool_.get(), kBaseReg, randDram(), rng_.next());
                return;
            }
            const std::size_t idx =
                b_.str(pool_.get(), kBaseReg, randDram(), rng_.next(),
                       0, EdkOps{0, *u});
            useKey(*u, idx);
        } else if (r < 50) {
            auto u = pickConsumable();
            if (!u) {
                b_.ldr(pool_.get(), kBaseReg, randDram());
                return;
            }
            const std::size_t idx =
                b_.ldr(pool_.get(), kBaseReg, randDram(), 0,
                       EdkOps{0, *u});
            useKey(*u, idx);
        } else if (r < 56) {
            emitJoin();
        } else if (r < 62) {
            auto u = pickConsumable();
            if (!u)
                return;
            b_.waitKey(*u);
            keys_[*u].s = KeySt::Resolved;
            keys_[*u].chain = 0;
        } else if (r < 65) {
            b_.waitAllKeys();
            resolveAll();
        } else if (r < 68) {
            b_.dsbSy();
            resolveAll();
        } else if (r < 72) {
            b_.dmbSt();
        } else if (r < 82) {
            const RegIndex a = pool_.get();
            if (rng_.chance(0.3))
                b_.mul(pool_.get(), a, a);
            else
                b_.alu(pool_.get(), a, kNoReg,
                       static_cast<std::int64_t>(rng_.below(64)));
        } else if (r < 88) {
            const std::string site =
                "b" + std::to_string(siteNo_++);
            b_.branchCond(site, pool_.get(), pool_.get(),
                          rng_.chance(0.5));
        } else if (r < 94) {
            b_.ldr(pool_.get(), kBaseReg, randDram());
        } else {
            const Addr a = randDram(); // 64-aligned: fine for STP.
            b_.stp(pool_.get(), pool_.get(), kBaseReg, a,
                   rng_.next(), rng_.next());
        }
    }

    void
    emitJoin()
    {
        auto u1 = pickConsumable();
        auto u2 = pickConsumable();
        auto d = pickDefinable();
        if (!u1 || !u2 || !d)
            return;
        const std::uint16_t mask = static_cast<std::uint16_t>(
            peekContribution(*u1) | peekContribution(*u2));
        if (mask & bit(*d))
            return; // would create a key-graph cycle; skip.
        const std::size_t idx = b_.join(*d, *u1, *u2);
        useKey(*u1, idx);
        useKey(*u2, idx);
        defineKey(*d, mask, idx);
    }

    void
    resolveAll()
    {
        for (Edk k = 1; k < kNumEdks; ++k) {
            if (keys_[k].s != KeySt::Undef) {
                keys_[k].s = KeySt::Resolved;
                keys_[k].chain = 0;
            }
        }
    }

    /** Emit one recorded malformation.  Each variant provably draws
     *  an error diagnostic at the marked index. */
    void
    inject(bool force = false)
    {
        for (int attempt = 0; attempt < 8; ++attempt) {
            switch (rng_.below(6)) {
              case 0: { // Key field outside the 4-bit encoding.
                const std::size_t idx = b_.str(
                    pool_.get(), kBaseReg, randDram(), rng_.next());
                prog_.trace.at(idx).si.edkUse = static_cast<Edk>(
                    kNumEdks + rng_.below(200));
                markInjected(idx);
                return;
              }
              case 1: { // Keys on an opcode with no EDE variant.
                const RegIndex a = pool_.get();
                const std::size_t idx = b_.alu(pool_.get(), a);
                prog_.trace.at(idx).si.edkDef = static_cast<Edk>(
                    1 + rng_.below(kNumEdks - 1));
                markInjected(idx);
                return;
              }
              case 2: { // Use of a key no producer ever defined.
                const std::size_t idx = b_.str(
                    pool_.get(), kBaseReg, randDram(), rng_.next(), 0,
                    EdkOps{0, static_cast<Edk>(
                                  kReservedLo + rng_.below(3))});
                markInjected(idx);
                return;
              }
              case 3: { // Redefine while the old def is unconsumed.
                auto p = pickKey([](const KeySt &k) {
                    return k.s == KeySt::Pending;
                });
                if (!p)
                    continue;
                const std::size_t idx = b_.str(
                    pool_.get(), kBaseReg, randNvm(), rng_.next(), 0,
                    EdkOps{*p, 0});
                markInjected(idx);
                defineKey(*p, 0, idx);
                return;
              }
              case 4: { // JOIN-built cycle in the key graph.
                injectJoinCycle();
                if (prog_.injections > 0 || !force)
                    return;
                continue;
              }
              default: { // WAIT_KEY on a dead key.
                b_.waitKey(static_cast<Edk>(
                    kReservedLo + rng_.below(3)));
                markInjected(prog_.trace.size() - 1);
                return;
              }
            }
        }
        // Deterministic fallback: always applicable.
        const std::size_t idx =
            b_.str(pool_.get(), kBaseReg, randDram(), rng_.next(), 0,
                   EdkOps{0, static_cast<Edk>(kReservedLo)});
        markInjected(idx);
    }

    /**
     * str def a; str def b; str use a; str use b;
     * join(a,b,-); join(b,a,-): the second JOIN closes a -> b -> a
     * in the key dependence graph.  Everything before it is
     * well-formed, so the recorded injection site is exactly where
     * the verifier must anchor its DependenceCycle error.
     */
    void
    injectJoinCycle()
    {
        auto a = pickDefinable();
        if (!a)
            return;
        // Temporarily mark a pending so b != a.
        const KeySt savedA = keys_[*a];
        keys_[*a].s = KeySt::Pending;
        auto b = pickDefinable();
        keys_[*a] = savedA;
        if (!b)
            return;

        std::size_t i = b_.str(pool_.get(), kBaseReg, randNvm(),
                               rng_.next(), 0, EdkOps{*a, 0});
        defineKey(*a, 0, i);
        i = b_.str(pool_.get(), kBaseReg, randNvm(), rng_.next(), 0,
                   EdkOps{*b, 0});
        defineKey(*b, 0, i);
        i = b_.str(pool_.get(), kBaseReg, randDram(), rng_.next(), 0,
                   EdkOps{0, *a});
        useKey(*a, i);
        i = b_.str(pool_.get(), kBaseReg, randDram(), rng_.next(), 0,
                   EdkOps{0, *b});
        useKey(*b, i);
        i = b_.join(*a, *b, 0);
        const std::uint16_t mb = useKey(*b, i);
        defineKey(*a, mb, i);
        // The closing JOIN is the malformation.
        markInjected(prog_.trace.size());
        i = b_.join(*b, *a, 0);
        const std::uint16_t ma = useKey(*a, i);
        defineKey(*b, ma, i);
    }

    /**
     * The only genuine-cycle shape this pipeline admits: a forged
     * *forward* srcID link (soft-error model, injected through
     * OoOCore::corruptEdeLink).  X's store data hangs off a
     * two-deep multiply chain so X cannot issue before Y has
     * dispatched and the forged X -> Y link is observable.
     */
    void
    generateFaultGadget()
    {
        for (int i = 0; i < 3; ++i)
            b_.str(pool_.get(), kBaseReg, dramLine(i), rng_.next());

        const RegIndex r0 = pool_.get();
        b_.movImm(r0, 3);
        const RegIndex d1 = pool_.get();
        const RegIndex d2 = pool_.get();
        b_.mul(d1, r0, r0);
        b_.mul(d2, d1, d1);

        const Edk k = static_cast<Edk>(1 + rng_.below(kMaxGenKey));
        const std::size_t x = b_.str(d2, kBaseReg, randNvm(),
                                     rng_.next(), 0, EdkOps{k, 0});
        defineKey(k, 0, x);
        const std::size_t y = b_.str(pool_.get(), kBaseReg,
                                     randDram(), rng_.next(), 0,
                                     EdkOps{0, k});
        useKey(k, y);
        prog_.faultProducerIdx = x;
        prog_.faultConsumerIdx = y;

        // Benign tail; keeps the ROB busy while the wedge forms.
        const std::size_t tail = rng_.between(2, 6);
        for (std::size_t i = 0; i < tail; ++i)
            b_.str(pool_.get(), kBaseReg, randDram(), rng_.next());
        if (rng_.chance(0.5)) {
            b_.waitKey(k);
            keys_[k].s = KeySt::Resolved;
        }
    }

    Rng &rng_;
    std::size_t maxOps_;
    GenProgram prog_;
    TraceBuilder b_;
    Addr nvmBase_;
    TempRegPool pool_;
    std::array<KeySt, kNumEdks> keys_{};
    bool recordPairs_ = true;
    int siteNo_ = 0;
};

/** Outcome of one pipeline run of one generated program. */
struct RunOut
{
    SimError error;
    CoreStats stats;
    std::vector<Cycle> completions;
    SimErrorKind err() const { return error.kind; }
};

RunOut
runOnce(const GenProgram &p, EnforceMode mode, EdkRecoveryMode rec)
{
    const Config cfg = mode == EnforceMode::IQ   ? Config::IQ
                       : mode == EnforceMode::WB ? Config::WB
                                                 : Config::B;
    // Stall window small enough to exercise the analyzer on ordinary
    // NVM waits (External classification), huge headroom below the
    // watchdog.
    Session session(
        SimConfig::paper(cfg)
            .withEdkRecovery(rec)
            .withEdkStallCycles(
                p.cls == ProgClass::HardwareFault ? 2'000 : 1'000)
            .withWatchdog(100'000));

    session.system().recordCompletions(true);
    if (p.cls == ProgClass::HardwareFault)
        session.system().core().corruptEdeLink(p.faultProducerIdx, 1);

    const SimResult run = session.run(RunRequest::of(p.trace));

    RunOut out;
    out.error = run.error;
    out.stats = run.stats.core;
    out.completions = session.system().completionCycles();
    return out;
}

void
dumpProgram(const GenProgram &p)
{
    std::fprintf(stderr, "--- program dump (%zu instructions) ---\n",
                 p.trace.size());
    for (std::size_t i = 0; i < p.trace.size(); ++i) {
        std::fprintf(stderr, "%4zu: %s\n", i,
                     disassemble(p.trace[i]).c_str());
    }
}

void
fail(ProgResult &res, std::size_t index, const std::string &what)
{
    if (!res.failure.empty())
        return;
    std::ostringstream os;
    os << "program " << index << ": " << what;
    res.failure = os.str();
}

/** Audit the recorded ordering pairs against a completed run. */
void
auditRun(ProgResult &res, std::size_t index, const GenProgram &p,
         const RunOut &run, const char *label)
{
    const AuditReport a =
        auditPersistOrdering(p.pairs, run.completions);
    res.auditChecked += a.checked;
    res.auditViolations += a.violations;
    if (!a.clean()) {
        std::ostringstream os;
        os << label << ": " << a.violations
           << " ordering violations (first at pair "
           << a.firstViolationOp << ")";
        fail(res, index, os.str());
    }
}

ProgResult
checkProgram(std::size_t index, const FuzzOptions &opt)
{
    Rng rng(opt.seed ^ ((index + 1) * 0x9e3779b97f4a7c15ull));
    ProgClass cls = ProgClass::WellFormed;
    const double roll = rng.real();
    if (roll < opt.faultRate)
        cls = ProgClass::HardwareFault;
    else if (roll < opt.faultRate + opt.malformRate)
        cls = ProgClass::Malformed;

    ProgramGen gen(rng, opt.maxOps);
    const GenProgram p = gen.generate(cls);

    ProgResult res;
    res.cls = cls;

    const VerifyReport vr = verifyTrace(p.trace);
    res.accepted = vr.accepted();
    for (const VerifyDiagnostic &d : vr.diagnostics)
        ++res.diag[static_cast<std::size_t>(d.kind)];

    auto tally = [&res](const RunOut &run) {
        ++res.runs;
        res.fencesSynthesized += run.stats.edkFencesSynthesized;
        res.externalStalls += run.stats.edkExternalStalls;
        if (run.err() == SimErrorKind::WatchdogNoProgress)
            ++res.watchdogFirings;
        if (run.err() == SimErrorKind::EdkDependenceCycle)
            ++res.detectorReports;
    };

    auto expect_clean = [&](const RunOut &run, const char *label,
                            bool no_stuck) {
        tally(run);
        if (run.err() != SimErrorKind::None) {
            fail(res, index,
                 std::string(label) + ": run aborted with " +
                     simErrorKindName(run.err()));
            if (opt.dumpFailures) {
                dumpProgram(p);
                std::fputs(run.error.describe().c_str(), stderr);
            }
            return false;
        }
        if (run.stats.retired != p.trace.size()) {
            std::ostringstream os;
            os << label << ": retired " << run.stats.retired
               << " of " << p.trace.size();
            fail(res, index, os.str());
            return false;
        }
        if (no_stuck && run.stats.edkStuckDetected != 0) {
            fail(res, index,
                 std::string(label) +
                     ": analyzer falsely reported a stuck chain");
            return false;
        }
        return true;
    };

    switch (cls) {
      case ProgClass::WellFormed: {
        if (!res.accepted) {
            fail(res, index, "well-formed program rejected: " +
                                 vr.describe());
            if (opt.dumpFailures)
                dumpProgram(p);
            break;
        }
        for (EnforceMode mode :
             {EnforceMode::IQ, EnforceMode::WB}) {
            const char *label = mode == EnforceMode::IQ
                                    ? "well-formed IQ"
                                    : "well-formed WB";
            const RunOut run =
                runOnce(p, mode, EdkRecoveryMode::Report);
            if (expect_clean(run, label, /*no_stuck=*/true))
                auditRun(res, index, p, run, label);
        }
        break;
      }
      case ProgClass::Malformed: {
        if (p.injections == 0) {
            fail(res, index, "malformed program has no injections");
            break;
        }
        if (res.accepted) {
            fail(res, index,
                 "malformed program accepted despite injection at " +
                     std::to_string(p.firstInjectedIdx));
            break;
        }
        const VerifyDiagnostic *first = vr.firstError();
        if (first && first->instIdx < p.firstInjectedIdx) {
            std::ostringstream os;
            os << "error reported at " << first->instIdx
               << " before the first injection at "
               << p.firstInjectedIdx << ": " << first->message;
            fail(res, index, os.str());
            break;
        }
        // Static malformations are still deadlock-free to execute:
        // degrade mode must carry every one to completion with the
        // uncorrupted prefix correctly ordered.
        for (EnforceMode mode :
             {EnforceMode::IQ, EnforceMode::WB}) {
            const char *label = mode == EnforceMode::IQ
                                    ? "malformed IQ degrade"
                                    : "malformed WB degrade";
            const RunOut run =
                runOnce(p, mode, EdkRecoveryMode::Degrade);
            if (expect_clean(run, label, /*no_stuck=*/true))
                auditRun(res, index, p, run, label);
        }
        break;
      }
      case ProgClass::HardwareFault: {
        if (!res.accepted) {
            fail(res, index,
                 "fault-gadget program statically rejected: " +
                     vr.describe());
            break;
        }
        // IQ + Report: the detector must name the cycle, well
        // before the watchdog window.
        {
            const RunOut run =
                runOnce(p, EnforceMode::IQ, EdkRecoveryMode::Report);
            tally(run);
            if (run.err() != SimErrorKind::EdkDependenceCycle) {
                fail(res, index,
                     std::string("fault IQ report: expected "
                                 "edk-dependence-cycle, got ") +
                         simErrorKindName(run.err()));
                if (opt.dumpFailures) {
                    dumpProgram(p);
                    std::fputs(run.error.describe().c_str(), stderr);
                }
            } else {
                const auto &chain = run.error.edkChain;
                const bool names_gadget = std::any_of(
                    chain.begin(), chain.end(),
                    [&](const EdkChainNode &n) {
                        return n.traceIdx == p.faultProducerIdx ||
                               n.traceIdx == p.faultConsumerIdx;
                    });
                if (chain.empty() || !names_gadget) {
                    fail(res, index,
                         "fault IQ report: chain does not name the "
                         "gadget");
                }
            }
        }
        // IQ + Degrade: the run must complete via synthesized
        // fences, and the gadget's own ordering pair must hold.
        {
            const RunOut run = runOnce(p, EnforceMode::IQ,
                                       EdkRecoveryMode::Degrade);
            if (expect_clean(run, "fault IQ degrade",
                             /*no_stuck=*/false)) {
                if (run.stats.edkFencesSynthesized == 0) {
                    fail(res, index,
                         "fault IQ degrade: completed without "
                         "synthesizing a fence");
                }
                auditRun(res, index, p, run, "fault IQ degrade");
            }
        }
        // WB: the insertion-time CAM check clears the dangling
        // forward tag; the same corruption must be harmless.
        {
            const RunOut run =
                runOnce(p, EnforceMode::WB, EdkRecoveryMode::Report);
            if (expect_clean(run, "fault WB", /*no_stuck=*/true))
                auditRun(res, index, p, run, "fault WB");
        }
        break;
      }
    }
    return res;
}

constexpr const char *kProgResultMagic = "ede-fuzz-prog";

} // namespace

std::string
FuzzReport::describe() const
{
    std::ostringstream os;
    os << programs << " programs (" << wellFormed << " well-formed, "
       << malformed << " malformed, " << hardwareFault
       << " hardware-fault), " << accepted << " accepted, "
       << rejected << " rejected\n";
    os << "static diagnostics:";
    bool any = false;
    for (std::size_t k = 0; k < kNumVerifyKinds; ++k) {
        if (!diagnosticsByKind[k])
            continue;
        os << " " << verifyKindName(static_cast<VerifyKind>(k)) << "="
           << diagnosticsByKind[k];
        any = true;
    }
    if (!any)
        os << " none";
    os << "\n";
    os << runs << " pipeline runs: " << detectorReports
       << " detector reports, " << fencesSynthesized
       << " fences synthesized, " << externalStalls
       << " external-stall classifications, " << watchdogFirings
       << " watchdog firings\n";
    os << "ordering audit: " << auditChecked << " pairs checked, "
       << auditViolations << " violations\n";
    os << "contract: "
       << (contractHolds() ? "HOLDS" : "VIOLATED") << " ("
       << violations << " violating programs, " << quarantined
       << " quarantined)\n";
    for (const std::string &f : failures)
        os << "  " << f << "\n";
    for (const std::string &q : quarantineFailures)
        os << "  " << q << "\n";
    return os.str();
}

FuzzReport
runVerifyFuzz(const FuzzOptions &options)
{
    if (options.isolate && !exp::processIsolationSupported())
        ede_fatal("process isolation is not supported on this platform");

    exp::Scheduler sched(options.jobs);
    FuzzReport report;

    std::vector<std::optional<ProgResult>> slots(options.programs);
    std::vector<std::optional<exp::JobFailure>> poisoned(
        options.programs);
    auto checkIndex = [&](std::size_t i) {
        if (!options.isolate) {
            slots[i] = checkProgram(i, options);
            return;
        }
        const exp::WorkerRun run = exp::runWithRetry(
            [&]() -> std::string {
                if (i == options.chaosCrashIndex)
                    std::abort();
                return exp::toWire(kProgResultMagic,
                                    checkProgram(i, options));
            },
            options.limits, options.retry,
            /*jitterSeed=*/options.seed ^
                ((i + 1) * 0x9e3779b97f4a7c15ull));
        if (run.ok()) {
            if (std::optional<ProgResult> r = exp::fromWire<ProgResult>(
                    run.payload, kProgResultMagic)) {
                slots[i] = std::move(*r);
                return;
            }
            exp::JobFailure protocol;
            protocol.outcome = exp::JobOutcome::Crashed;
            protocol.attempts = run.failure.attempts;
            protocol.message =
                "worker payload failed fuzz-result validation";
            poisoned[i] = std::move(protocol);
        } else {
            poisoned[i] = run.failure;
        }
        ede_warn("fuzz program ", i, " quarantined: ",
                 poisoned[i]->describe());
    };

    if (options.isolate) {
        sched.run(options.programs, checkIndex,
                  exp::FailureMode::KeepGoing);
    } else {
        sched.parallelFor(options.programs, checkIndex);
    }

    report.programs = options.programs;
    for (std::size_t i = 0; i < options.programs; ++i) {
        if (!slots[i]) {
            ++report.quarantined;
            if (report.quarantineFailures.size() <
                options.maxFailures) {
                report.quarantineFailures.push_back(
                    "program " + std::to_string(i) +
                    " quarantined: " +
                    (poisoned[i] ? poisoned[i]->describe()
                                 : std::string("no worker verdict")));
            }
            continue;
        }
        const ProgResult &r = *slots[i];
        switch (r.cls) {
          case ProgClass::WellFormed:
            ++report.wellFormed;
            break;
          case ProgClass::Malformed:
            ++report.malformed;
            break;
          case ProgClass::HardwareFault:
            ++report.hardwareFault;
            break;
        }
        ++(r.accepted ? report.accepted : report.rejected);
        for (std::size_t k = 0; k < kNumVerifyKinds; ++k)
            report.diagnosticsByKind[k] += r.diag[k];
        report.runs += r.runs;
        report.detectorReports += r.detectorReports;
        report.fencesSynthesized += r.fencesSynthesized;
        report.externalStalls += r.externalStalls;
        report.watchdogFirings += r.watchdogFirings;
        report.auditChecked += r.auditChecked;
        report.auditViolations += r.auditViolations;
        if (!r.failure.empty()) {
            ++report.violations;
            if (report.failures.size() < options.maxFailures)
                report.failures.push_back(r.failure);
        }
    }
    return report;
}

} // namespace ede
