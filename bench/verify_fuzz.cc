/**
 * @file
 * Malformed-program fuzz campaign driver.
 *
 * Generates thousands of seeded adversarial EDE programs and enforces
 * the verifier/pipeline contract in both directions: programs built
 * well-formed must be accepted and run clean on both enforcement
 * designs; programs with recorded malformations must be rejected at
 * or before the first offending instruction and still complete under
 * degrade-to-fence recovery; hardware-fault gadgets must be caught by
 * the runtime detector in IQ mode, survive degrade mode with
 * synthesized fences, and be neutralized by the WB CAM check.
 *
 * Usage:
 *   verify_fuzz [--seed N] [--programs N] [--max-ops N]
 *               [--malform-rate F] [--fault-rate F] [--jobs N]
 *               [--isolate] [--timeout-ms T] [--mem-limit-mb M]
 *               [--attempts N]
 *
 *   --jobs runs the per-program checks in parallel through the
 *   experiment scheduler (0 = hardware concurrency); results are
 *   bit-identical to --jobs 1 because each program derives only
 *   from (seed, index).
 *   --isolate forks one worker per program so a crash, hang or OOM
 *   while checking one adversarial program quarantines that program
 *   instead of killing the campaign.
 *
 * Exit status is non-zero when any generated program broke the
 * contract or was quarantined, so the campaign can gate CI.
 */

#include <cstdio>
#include <string>

#include "cli.hh"
#include "verify/fuzz.hh"

using namespace ede;
using namespace ede::bench;

int
main(int argc, char **argv)
{
    FuzzOptions options;
    Cli cli("verify_fuzz");
    cli.value("--seed", "N", "campaign RNG seed",
              [&](const std::string &v) { options.seed = toU64(v); })
        .value("--programs", "N", "generated programs",
               [&](const std::string &v) {
                   options.programs = toU64(v);
               })
        .value("--max-ops", "N", "max operations per program",
               [&](const std::string &v) {
                   options.maxOps = toU64(v);
               })
        .value("--malform-rate", "F",
               "fraction of programs given a malformation",
               [&](const std::string &v) {
                   options.malformRate = toF64(v);
               })
        .value("--fault-rate", "F",
               "fraction of programs given a hardware-fault gadget",
               [&](const std::string &v) {
                   options.faultRate = toF64(v);
               })
        .value("--jobs", "N",
               "parallel checks (0 = hardware concurrency); results "
               "are bit-identical to --jobs 1",
               [&](const std::string &v) {
                   options.jobs = toUnsigned(v);
               })
        .toggle("--dump", "dump every contract-breaking program",
                [&] { options.dumpFailures = true; })
        .value("--chaos-crash-index", "I",
               "chaos hook: this program's isolated worker calls "
               "abort() (CI/testing only)",
               [&](const std::string &v) {
                   options.isolation.chaosLabel = std::to_string(toU64(v));
               });
    addIsolationFlags(cli, options.isolation);
    cli.parse(argc, argv);

    if (!options.isolation.journalPath.empty() ||
        options.isolation.resume) {
        std::fprintf(stderr, "verify_fuzz: --journal/--resume are not "
                             "supported here (use fault_campaign)\n");
        return 2;
    }

    const FuzzReport report = runVerifyFuzz(options);
    std::fputs(report.describe().c_str(), stdout);
    return report.contractHolds() ? 0 : 1;
}
