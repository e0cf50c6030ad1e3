/**
 * @file
 * The crash-consistency drivers' wire decoders against damaged input.
 *
 * Each payload comes back from a journal file or a worker pipe, so a
 * torn or tampered one must be rejected, never half-read.  Each of
 * the four decoders gets a real payload carrying at least one
 * failure or counterexample, then must reject every prefix cut at a
 * token boundary before the last token, and the payload with a list
 * count raised by one or to the largest 64-bit value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/conc_campaign.hh"
#include "fault/conc_check.hh"
#include "fault/model_check/checker.hh"

namespace ede {
namespace {

/**
 * Expect @p decode to accept @p payload, reproducing it through
 * @p encode, and to reject every damaged variant: each prefix ending
 * at a token boundary before the last token, and the payload with the
 * count after each of @p countKeys raised by one or to 2^64 - 1 (a
 * count no input can hold, which must be a rejection, not an
 * allocation failure).
 */
template <class Result>
void
expectRejectsDamage(const std::string &payload,
                    std::string (*encode)(const Result &),
                    std::optional<Result> (*decode)(const std::string &),
                    std::initializer_list<const char *> countKeys)
{
    const std::optional<Result> whole = decode(payload);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(encode(*whole), payload);

    std::vector<std::size_t> cuts{0};
    for (std::size_t i = 0; i < payload.size(); ++i) {
        const bool ends_token =
            !std::isspace(static_cast<unsigned char>(payload[i])) &&
            (i + 1 == payload.size() ||
             std::isspace(static_cast<unsigned char>(payload[i + 1])));
        if (ends_token)
            cuts.push_back(i + 1);
    }
    cuts.pop_back();  // The end of the last token: the whole payload.
    ASSERT_GT(cuts.size(), 10u);
    for (std::size_t cut : cuts) {
        EXPECT_FALSE(decode(payload.substr(0, cut)).has_value())
            << "accepted the first " << cut << " bytes";
    }

    for (const char *key : countKeys) {
        const std::string head = std::string("\n") + key + " ";
        const std::size_t at = payload.find(head);
        ASSERT_NE(at, std::string::npos) << key;
        const std::size_t num = at + head.size();
        const std::size_t len = payload.find('\n', num) - num;
        const std::uint64_t count = std::stoull(payload.substr(num, len));
        for (std::uint64_t raised : {count + 1, ~std::uint64_t{0}}) {
            std::string bumped = payload;
            bumped.replace(num, len, std::to_string(raised));
            EXPECT_FALSE(decode(bumped).has_value())
                << key << " raised to " << raised;
        }
    }
}

TEST(FaultWire, CampaignDecoderRejectsDamage)
{
    CampaignOptions opts;
    opts.seed = 5;
    opts.pointsPerConfig = 40;
    opts.spec = RunSpec{/*txns=*/4, /*opsPerTxn=*/5, /*seed=*/11};
    opts.configs = {Config::U};
    CampaignConfigResult c = runCampaign(opts).configs.at(0);

    // A safe configuration never fails in a healthy build, so record
    // U's first unrecoverable point the way the campaign records a
    // safe configuration's failure.
    const auto bad = std::find_if(
        c.results.begin(), c.results.end(), [](const CrashPointResult &r) {
            return r.outcome == CrashOutcome::Unrecoverable;
        });
    ASSERT_NE(bad, c.results.end());
    c.failures.push_back(
        Reproducer{opts.seed, c.config, bad->crashCycle, bad->plan});

    expectRejectsDamage(serializeConfigResult(c), serializeConfigResult,
                        deserializeConfigResult,
                        {"crash_points", "failures"});
}

TEST(FaultWire, ConcCampaignDecoderRejectsDamage)
{
    ConcCampaignOptions opts;
    opts.app = ConcApp::RcuList;
    opts.cores = 2;
    opts.pointsPerConfig = 40;
    opts.configs = {Config::U};
    ConcCampaignConfigResult c = runConcCampaign(opts).configs.at(0);

    // As above: U's first violated invariant stands in for a safe
    // configuration's failure.
    const auto bad = std::find_if(
        c.results.begin(), c.results.end(),
        [](const ConcCrashPointResult &r) {
            return r.outcome == CrashOutcome::Unrecoverable;
        });
    ASSERT_NE(bad, c.results.end());
    c.failures.push_back(ConcReproducer{opts.seed, c.config,
                                        bad->crashCycle, bad->plan,
                                        bad->invariant});

    expectRejectsDamage(serializeConcCampaignResult(c),
                        serializeConcCampaignResult,
                        deserializeConcCampaignResult,
                        {"crash_points", "failures"});
}

TEST(FaultWire, ModelCheckDecoderRejectsDamage)
{
    ModelCheckOptions opts;
    opts.seedBug = true;
    opts.configs = {Config::IQ};
    const ModelCheckConfigResult c = runModelCheck(opts).configs.at(0);
    ASSERT_FALSE(c.counterexamples.empty());

    expectRejectsDamage(serializeModelCheckResult(c),
                        serializeModelCheckResult,
                        deserializeModelCheckResult, {"counterexamples"});
}

TEST(FaultWire, ConcCheckDecoderRejectsDamage)
{
    ConcCheckOptions opts;
    opts.app = ConcApp::RwLock;
    opts.workloadSeed = 57;
    opts.seedBug = true;
    opts.configs = {Config::WB};
    const ConcCheckConfigResult c = runConcCheck(opts).configs.at(0);
    ASSERT_FALSE(c.counterexamples.empty());

    expectRejectsDamage(serializeConcCheckResult(c),
                        serializeConcCheckResult,
                        deserializeConcCheckResult, {"counterexamples"});
}

} // namespace
} // namespace ede
