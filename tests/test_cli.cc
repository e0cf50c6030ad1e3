/**
 * @file
 * Tests for the bench command-line front end: strict value parsing
 * (whole-string integers/doubles, no silent zeroes from garbage),
 * unknown-flag and malformed-value rejection with exit status 2, the
 * isolation-flag plumbing into exp::RunnerOptions, and the bench
 * binaries' one-line usage-fault exit.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"

namespace ede {
namespace {

using bench::Cli;
using bench::CliError;

/** argv builder for Cli::parse. */
struct Args
{
    explicit Args(std::initializer_list<const char *> words)
        : storage(words.begin(), words.end())
    {
        storage.insert(storage.begin(), "prog");
        for (std::string &w : storage)
            ptrs.push_back(w.data());
    }

    int argc() { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> storage;
    std::vector<char *> ptrs;
};

// ---------------------------------------------------------------- //
// Value conversions
// ---------------------------------------------------------------- //

TEST(CliValues, ParsesWellFormedIntegers)
{
    EXPECT_EQ(bench::toU64("0"), 0u);
    EXPECT_EQ(bench::toU64("42"), 42u);
    EXPECT_EQ(bench::toU64("0x10"), 16u);  // Base prefixes still work.
    EXPECT_EQ(bench::toUnsigned("4294967295"), 4294967295u);
    EXPECT_DOUBLE_EQ(bench::toF64("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(bench::toF64("-1.5"), -1.5);
}

TEST(CliValues, RejectsMalformedIntegers)
{
    EXPECT_THROW(bench::toU64(""), CliError);
    EXPECT_THROW(bench::toU64("abc"), CliError);
    EXPECT_THROW(bench::toU64("12abc"), CliError);
    EXPECT_THROW(bench::toU64("-3"), CliError);
    EXPECT_THROW(bench::toU64("99999999999999999999999"), CliError);
    EXPECT_THROW(bench::toUnsigned("4294967296"), CliError);
}

TEST(CliValues, RejectsMalformedDoubles)
{
    EXPECT_THROW(bench::toF64(""), CliError);
    EXPECT_THROW(bench::toF64("fast"), CliError);
    EXPECT_THROW(bench::toF64("0.5x"), CliError);
}

// ---------------------------------------------------------------- //
// Parse: rejection paths exit 2 with a one-line diagnostic
// ---------------------------------------------------------------- //

Cli
seedCli(std::uint64_t &seed)
{
    Cli cli("testprog");
    cli.value("--seed", "N", "rng seed", [&seed](const std::string &v) {
        seed = bench::toU64(v);
    });
    return cli;
}

using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, UnknownFlagExitsTwo)
{
    std::uint64_t seed = 0;
    Args args({"--sede", "7"});
    EXPECT_EXIT(seedCli(seed).parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2), "unknown flag '--sede'");
}

TEST(CliDeathTest, MalformedValueExitsTwoAndNamesTheFlag)
{
    std::uint64_t seed = 0;
    Args args({"--seed", "banana"});
    EXPECT_EXIT(seedCli(seed).parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "flag --seed: expected an unsigned integer, got "
                "'banana'");
}

TEST(CliDeathTest, MissingValueExitsTwo)
{
    std::uint64_t seed = 0;
    Args args({"--seed"});
    EXPECT_EXIT(seedCli(seed).parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "flag --seed needs a value");
}

TEST(CliDeathTest, UnknownNameExitsTwoAndNamesTheFlag)
{
    std::string app;
    Cli cli("testprog");
    cli.value("--app", "NAME", "application", [&app](const std::string &v) {
        app = appName(bench::fromName(kAllApps, appName, v, "app"));
    });
    Args good({"--app", "swap"});
    cli.parse(good.argc(), good.argv());
    EXPECT_EQ(app, "swap");

    Args bad({"--app", "swop"});
    EXPECT_EXIT(cli.parse(bad.argc(), bad.argv()),
                ::testing::ExitedWithCode(2),
                "flag --app: unknown app 'swop'");
}

TEST(CliDeathTest, UnknownAppInAListExitsTwo)
{
    // The sweep benches' --app LIST takes the malformed-value path
    // too: exit 2 with usage, not the exit-1 verdict status.
    Args args({"--app", "update,nope"});
    EXPECT_EXIT(bench::parseOptions(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "flag --app: unknown app 'nope'");
}

TEST(CliDeathTest, ZeroAttemptsIsRejected)
{
    exp::Isolation iso;
    Cli cli("testprog");
    bench::addIsolationFlags(cli, iso);
    Args args({"--attempts", "0"});
    EXPECT_EXIT(cli.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "--attempts must be >= 1");
}

// ---------------------------------------------------------------- //
// Accepting paths
// ---------------------------------------------------------------- //

TEST(Cli, GoodValuesReachTheCallback)
{
    std::uint64_t seed = 0;
    Args args({"--seed", "0x2a"});
    seedCli(seed).parse(args.argc(), args.argv());
    EXPECT_EQ(seed, 42u);
}

TEST(Cli, IsolationFlagsPopulateRunnerOptions)
{
    Args args({"--isolate", "--timeout-ms", "1500", "--mem-limit-mb",
               "256", "--attempts", "5", "--journal", "j.log",
               "--resume"});
    const exp::RunnerOptions ro =
        bench::runnerOptions(bench::parseOptions(args.argc(), args.argv()));

    const exp::Isolation &iso = ro.isolation;
    EXPECT_TRUE(iso.isolate);
    EXPECT_EQ(iso.limits.timeoutMs, 1500u);
    EXPECT_EQ(iso.limits.memLimitBytes, 256ull * 1024 * 1024);
    EXPECT_EQ(iso.retry.maxAttempts, 5u);
    EXPECT_EQ(iso.journalPath, "j.log");
    EXPECT_TRUE(iso.resume);
}

// ---------------------------------------------------------------- //
// Traffic flags
// ---------------------------------------------------------------- //

TEST(Cli, TrafficFlagsPopulateOptions)
{
    bench::TrafficOptions t;
    Cli cli("testprog");
    bench::addTrafficFlags(cli, t);
    // --arrival is repeatable: each use appends one sweep point.
    Args args({"--streams", "8", "--zipf-theta", "0.5", "--arrival",
               "4000", "--arrival", "125.5", "--bursty", "--seed",
               "7"});
    cli.parse(args.argc(), args.argv());

    EXPECT_EQ(t.streams, 8u);
    EXPECT_DOUBLE_EQ(t.zipfTheta, 0.5);
    ASSERT_EQ(t.arrivalGaps.size(), 2u);
    EXPECT_DOUBLE_EQ(t.arrivalGaps[0], 4000.0);
    EXPECT_DOUBLE_EQ(t.arrivalGaps[1], 125.5);
    EXPECT_TRUE(t.bursty);
    EXPECT_EQ(t.seed, 7u);
}

TEST(CliDeathTest, ZeroStreamsIsRejected)
{
    bench::TrafficOptions t;
    Cli cli("testprog");
    bench::addTrafficFlags(cli, t);
    Args args({"--streams", "0"});
    EXPECT_EXIT(cli.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "--streams must be >= 1");
}

TEST(CliDeathTest, DivergentZipfThetaIsRejected)
{
    bench::TrafficOptions t;
    Cli cli("testprog");
    bench::addTrafficFlags(cli, t);
    Args args({"--zipf-theta", "1.0"});
    EXPECT_EXIT(cli.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "--zipf-theta must be in");
}

TEST(CliDeathTest, NonPositiveArrivalGapIsRejected)
{
    bench::TrafficOptions t;
    Cli cli("testprog");
    bench::addTrafficFlags(cli, t);
    Args args({"--arrival", "0"});
    EXPECT_EXIT(cli.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "--arrival must be > 0");
}

// ---------------------------------------------------------------- //
// Bench binaries
// ---------------------------------------------------------------- //

TEST(CliBench, ModelCheckRejectsAnOversizedPacedPlan)
{
    // 4 cores x 32 paced ops need more pace-read lines than a core's
    // arena holds: model_check must refuse with exit 2 and a one-line
    // diagnostic, not abort (exit 134) partway through generation.
    const std::string err = ::testing::TempDir() + "model_check.stderr";
    const std::string cmd = std::string(EDE_MODEL_CHECK_BIN) +
                            " --conc rwlock --cores 4 --ops-per-core 32"
                            " >/dev/null 2>" + err;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 2);

    std::ifstream in(err);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].rfind("model_check: pace-slots-exhausted", 0), 0u)
        << lines[0];
    EXPECT_NE(lines[0].find("10320"), std::string::npos) << lines[0];
}

TEST(CliDeathTest, ModelCheckRejectsAnUnknownConfig)
{
    // An unknown --config name takes the malformed-value path: exit 2,
    // a diagnostic naming the flag, then the usage text.
    const std::string err =
        ::testing::TempDir() + "model_check_config.stderr";
    const std::string cmd = std::string(EDE_MODEL_CHECK_BIN) +
                            " --config bogus >/dev/null 2>" + err;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 2);

    std::ifstream in(err);
    std::string first, second;
    std::getline(in, first);
    std::getline(in, second);
    EXPECT_EQ(first, "model_check: flag --config: unknown config 'bogus'");
    EXPECT_EQ(second.rfind("usage: model_check", 0), 0u) << second;
}

} // namespace
} // namespace ede
