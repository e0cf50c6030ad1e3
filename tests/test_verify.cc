/**
 * @file
 * Unit tests for the static EDK dataflow verifier: every diagnostic
 * kind is reachable, anchored at the right instruction index, and
 * legal programs -- including both wait_key encoding conventions and
 * fence-resolved key reuse -- are accepted.  A small fuzz campaign
 * covers its process-isolated path: the same report as in-process,
 * the chaos quarantine and the refused journal.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "trace/builder.hh"
#include "verify/fuzz.hh"
#include "verify/verifier.hh"

namespace ede {
namespace {

std::vector<StaticInst>
mustAssemble(std::string_view listing)
{
    std::string err;
    const auto program = assemble(listing, &err);
    EXPECT_TRUE(program.has_value()) << err;
    return program.value_or(std::vector<StaticInst>{});
}

TEST(Verify, EmptyProgramAccepted)
{
    const VerifyReport r = verifyProgram({});
    EXPECT_TRUE(r.accepted());
    EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Verify, AcceptsFigure7StylePersistPair)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (1,0), x2
        str (0,1), x3, [x0]
        wait_key (1)
    )"));
    EXPECT_TRUE(r.accepted()) << r.describe();
}

TEST(Verify, RejectsOutOfRangeKeyEncoding)
{
    // The assembler already rejects these; the verifier guards the
    // raw-encoding path (decoder output, hand-built traces).
    std::vector<StaticInst> p = mustAssemble("str x3, [x0]");
    p[0].edkUse = 16;
    const VerifyReport r = verifyProgram(p);
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::InvalidKeyEncoding), 1u);
    ASSERT_NE(r.firstError(), nullptr);
    EXPECT_EQ(r.firstError()->instIdx, 0u);
}

TEST(Verify, RejectsSecondUseKeyOutsideJoin)
{
    std::vector<StaticInst> p = mustAssemble("str (1,0), x3, [x0]");
    p[0].edkUse2 = 2;
    const VerifyReport r = verifyProgram(p);
    EXPECT_FALSE(r.accepted());
    EXPECT_GE(r.countOf(VerifyKind::InvalidKeyEncoding), 1u);
}

TEST(Verify, RejectsKeysOnNonEdeOpcode)
{
    std::vector<StaticInst> p = mustAssemble(R"(
        nop
        add x1, x2, #4
    )");
    p[1].edkDef = 3;
    const VerifyReport r = verifyProgram(p);
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::KeysOnNonEdeOpcode), 1u);
    EXPECT_EQ(r.firstError()->instIdx, 1u);
}

TEST(Verify, RejectsUseOfUndefinedKey)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        str (0,5), x3, [x0]
    )"));
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::UseOfUndefinedKey), 1u);
    EXPECT_EQ(r.firstError()->key, 5);
}

TEST(Verify, RejectsWaitOnDeadKey)
{
    const VerifyReport r = verifyProgram(mustAssemble("wait_key (7)"));
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::WaitOnDeadKey), 1u);
}

TEST(Verify, RejectsRedefineWhilePendingAndNamesTheDef)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (2,0), x1
        dc cvap (2,0), x1
    )"));
    EXPECT_FALSE(r.accepted());
    ASSERT_EQ(r.countOf(VerifyKind::RedefineWhilePending), 1u);
    const VerifyDiagnostic *e = r.firstError();
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->instIdx, 1u);
    EXPECT_EQ(e->relatedIdx, 0u); // Points at the dropped definition.
}

TEST(Verify, RedefiningConsumedKeyIsLegal)
{
    // Once a definition has a consumer the dependence is recorded in
    // hardware; overwriting the EDM slot loses nothing.
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (2,0), x1
        str (0,2), x3, [x0]
        dc cvap (2,0), x1
        str (0,2), x4, [x0]
        wait_key (2)
    )"));
    EXPECT_TRUE(r.accepted()) << r.describe();
}

TEST(Verify, RejectsSelfLoop)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (1,0), x1
        str (1,1), x3, [x0]
    )"));
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::DependenceCycle), 1u);
    EXPECT_EQ(r.firstError()->instIdx, 1u);
}

TEST(Verify, RejectsCycleBuiltThroughChains)
{
    // Key 2 orders after key 1; redefining key 1 to order after key 2
    // closes the loop (1 was consumed, so the redefinition itself is
    // legal -- only the cycle is the error).
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        str (1,0), x3, [x0]
        str (2,1), x4, [x0]
        str (1,2), x5, [x0]
    )"));
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::DependenceCycle), 1u);
    EXPECT_EQ(r.firstError()->instIdx, 2u);
}

TEST(Verify, RejectsCycleBuiltThroughJoin)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        str (1,0), x3, [x0]
        str (2,0), x4, [x0]
        str (0,1), x5, [x0]
        str (0,2), x6, [x0]
        join (1,2,0)
        join (2,1,0)
    )"));
    EXPECT_FALSE(r.accepted());
    EXPECT_GE(r.countOf(VerifyKind::DependenceCycle), 1u);
}

TEST(Verify, DsbResolvesEveryLiveKey)
{
    // Regression: the fence must run the semantic pass even though it
    // carries no key operands, or the reuse below looks like a
    // redefinition of a pending key.
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (5,0), x1
        dsb sy
        dc cvap (5,0), x1
        dsb sy
    )"));
    EXPECT_TRUE(r.accepted()) << r.describe();
}

TEST(Verify, WaitAllKeysResolvesEveryLiveKey)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (3,0), x1
        dc cvap (4,0), x1
        wait_all_keys
        dc cvap (3,0), x1
        wait_key (3)
    )"));
    EXPECT_TRUE(r.accepted()) << r.describe();
}

TEST(Verify, ConsumingResolvedKeyCarriesNoOrdering)
{
    // After wait_key the producer provably completed; a later use
    // contributes nothing to the chain, so def(1) <- use(1) is not a
    // self-loop here.
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (1,0), x1
        wait_key (1)
        str (1,1), x3, [x0]
        wait_key (1)
    )"));
    EXPECT_TRUE(r.accepted()) << r.describe();
}

TEST(Verify, WaitKeyAcceptsBothEncodingConventions)
{
    // The assembler emits def == use (Section IV-B2)...
    EXPECT_TRUE(verifyProgram(mustAssemble(R"(
        dc cvap (4,0), x1
        wait_key (4)
    )")).accepted());

    // ...while the trace layer leaves def zero.
    Trace t;
    TraceBuilder b(t);
    b.cvap(2, 0x100000, {4, 0});
    b.waitKey(4);
    EXPECT_EQ(t.at(1).si.edkDef, kZeroEdk);
    EXPECT_TRUE(verifyTrace(t).accepted());
}

TEST(Verify, RejectsWaitAllKeysWithKeyOperands)
{
    std::vector<StaticInst> p = mustAssemble("wait_all_keys");
    p[0].edkUse = 3;
    const VerifyReport r = verifyProgram(p);
    EXPECT_FALSE(r.accepted());
    EXPECT_GE(r.countOf(VerifyKind::InvalidKeyEncoding), 1u);
}

TEST(Verify, ReducedEdmCapacityIsEnforced)
{
    const std::vector<StaticInst> p = mustAssemble(R"(
        dc cvap (1,0), x1
        dc cvap (2,0), x1
        dc cvap (3,0), x1
        wait_all_keys
    )");
    VerifyOptions opt;
    opt.edmCapacity = 2;
    const VerifyReport r = verifyProgram(p, opt);
    EXPECT_FALSE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::EdmCapacityExceeded), 1u);
    EXPECT_EQ(r.firstError()->instIdx, 2u);

    // The architectural 15-slot map can hold all three.
    EXPECT_TRUE(verifyProgram(p).accepted());
}

TEST(Verify, UnconsumedDefIsOnlyAWarning)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        dc cvap (6,0), x1
    )"));
    EXPECT_TRUE(r.accepted());
    EXPECT_EQ(r.countOf(VerifyKind::UnconsumedDef), 1u);
    EXPECT_EQ(r.diagnostics.at(0).severity, VerifySeverity::Warning);

    VerifyOptions quiet;
    quiet.warnUnconsumed = false;
    EXPECT_TRUE(verifyProgram(mustAssemble("dc cvap (6,0), x1"),
                              quiet).diagnostics.empty());
}

TEST(Verify, FirstErrorIsLowestIndex)
{
    const VerifyReport r = verifyProgram(mustAssemble(R"(
        nop
        str (0,9), x3, [x0]
        wait_key (9)
    )"));
    EXPECT_FALSE(r.accepted());
    ASSERT_NE(r.firstError(), nullptr);
    EXPECT_EQ(r.firstError()->instIdx, 1u);
    EXPECT_EQ(r.firstError()->kind, VerifyKind::UseOfUndefinedKey);
}

TEST(Verify, TraceAndProgramPathsAgree)
{
    Trace t;
    TraceBuilder b(t);
    b.cvap(2, 0x100000, {1, 0});
    b.str(3, 2, 0x100040, 7, 0, {0, 1});
    b.waitKey(1);
    const VerifyReport rt = verifyTrace(t);
    EXPECT_TRUE(rt.accepted()) << rt.describe();
    EXPECT_EQ(rt.instructions, t.size());
}

// ---------------------------------------------------------------- //
// Fuzz campaign, process-isolated
// ---------------------------------------------------------------- //

FuzzOptions
smallFuzz()
{
    FuzzOptions opt;
    opt.programs = 16;
    opt.jobs = 2;
    opt.isolation.retry.maxAttempts = 2;
    opt.isolation.retry.backoffBaseMs = 1;
    opt.isolation.retry.backoffMaxMs = 2;
    return opt;
}

TEST(VerifyFuzz, IsolatedReportEqualsInProcess)
{
    FuzzOptions opt = smallFuzz();
    const std::string inProcess = runVerifyFuzz(opt).describe();
    opt.isolation.isolate = true;
    EXPECT_EQ(runVerifyFuzz(opt).describe(), inProcess);
}

TEST(VerifyFuzz, ChaosLabelQuarantinesThatProgram)
{
    FuzzOptions opt = smallFuzz();
    opt.isolation.isolate = true;
    opt.isolation.chaosLabel = "3";
    const FuzzReport report = runVerifyFuzz(opt);
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_FALSE(report.contractHolds());
    EXPECT_NE(report.describe().find("program 3 quarantined"),
              std::string::npos)
        << report.describe();
}

TEST(VerifyFuzzDeathTest, RefusesAJournal)
{
    FuzzOptions opt = smallFuzz();
    opt.isolation.isolate = true;
    opt.isolation.journalPath = ::testing::TempDir() + "fuzz.journal";
    EXPECT_EXIT(runVerifyFuzz(opt), ::testing::ExitedWithCode(1),
                "fuzz campaign cannot be journaled");
}

} // namespace
} // namespace ede
