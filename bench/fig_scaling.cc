/**
 * @file
 * Multi-core scalability reporter: the concurrent persistent kernels
 * (MS-queue, reader-writer lock, RCU list) on 1..8 cores for every
 * Table III configuration.
 *
 * Each cell runs N cores lock-step over one shared hierarchy, with
 * fixed work *per core* (weak scaling): the scaling factor reported
 * is N * cycles(1) / cycles(N), i.e. ideal == N.  Cells run through
 * the experiment layer -- parallel across cells, served from the
 * content-addressed result cache on a repeat run -- and the --json
 * artifact (BENCH_scaling.json) is the unified ResultSink schema,
 * whose per-cell "cores" array and "coherence" object carry the
 * per-core breakdown and the coherence-point counters.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/concurrent.hh"
#include "cli.hh"
#include "common/stats.hh"
#include "exp/runner.hh"
#include "exp/sink.hh"
#include "sim/sim_config.hh"

using namespace ede;
using namespace ede::bench;

namespace {

struct Options
{
    int opsPerCore = 256;
    std::uint64_t seed = 42;
    bool smoke = false;
    CommonOptions common;  ///< --jobs / --json / --cache-dir / ...
};

/** The plan-point label of one (kernel, config, cores) cell. */
std::string
cellLabel(ConcApp app, Config cfg, unsigned cores)
{
    return std::string(concAppName(app)) + "/" +
           std::string(configName(cfg)) + "/" +
           std::to_string(cores) + "c";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    Cli cli("fig_scaling");
    cli.value("--ops", "N", "operations per core (default 256)",
              [&opt](const std::string &v) {
                  opt.opsPerCore = static_cast<int>(toUnsigned(v));
                  if (opt.opsPerCore < 1)
                      throw CliError{"--ops must be >= 1"};
              })
        .toggle("--smoke",
                "tiny sweep for CI (MS-queue, 1 and 4 cores, 32 ops)",
                [&opt] { opt.smoke = true; });
    addSeedFlag(cli, opt.seed);
    addCommonFlags(cli, opt.common);
    cli.parse(argc, argv);

    std::vector<ConcApp> apps(kAllConcApps.begin(),
                              kAllConcApps.end());
    std::vector<unsigned> coreCounts{1, 2, 4, 8};
    if (opt.smoke) {
        apps = {ConcApp::MsQueue};
        coreCounts = {1, 4};
        opt.opsPerCore = std::min(opt.opsPerCore, 32);
    }

    std::printf("== Multi-core scaling: concurrent persistent "
                "kernels ==\n(%d ops/core, seed %llu)\n\n",
                opt.opsPerCore,
                static_cast<unsigned long long>(opt.seed));

    exp::ExperimentPlan plan;
    for (ConcApp app : apps) {
        for (Config cfg : kAllConfigs) {
            for (unsigned n : coreCounts) {
                exp::ExperimentPoint pt;
                pt.label = cellLabel(app, cfg, n);
                pt.config = cfg;
                pt.simParams = SimConfig::paper(cfg)
                                   .withCoreCount(static_cast<int>(n))
                                   .params();
                pt.conc = true;
                pt.concApp = app;
                pt.concOpsPerCore = opt.opsPerCore;
                pt.concSeed = opt.seed;
                plan.add(std::move(pt));
            }
        }
    }

    exp::RunnerOptions ro;
    ro.jobs = opt.common.jobs;
    ro.cacheDir =
        opt.common.useCache ? opt.common.cacheDir : std::string();
    const exp::ExperimentResults results = exp::runPlan(plan, ro);

    for (ConcApp app : apps) {
        TextTable t({"config", "1c", "2c", "4c", "8c",
                     "scaling@8c", "snoops@8c"});
        // Column layout follows the full sweep; smoke rows leave
        // missing core counts blank.
        for (Config cfg : kAllConfigs) {
            std::vector<std::string> row{
                std::string(configName(cfg))};
            Cycle base = 0;
            Cycle last = 0;
            unsigned last_n = 1;
            std::uint64_t last_snoops = 0;
            for (unsigned n : {1u, 2u, 4u, 8u}) {
                const bool present =
                    std::find(coreCounts.begin(), coreCounts.end(),
                              n) != coreCounts.end();
                if (!present) {
                    row.push_back("-");
                    continue;
                }
                const exp::ExperimentCell &cell =
                    results.cellByLabel(cellLabel(app, cfg, n));
                const Cycle c = cell.result.cycles;
                if (n == 1)
                    base = c;
                last = c;
                last_n = n;
                last_snoops = cell.result.coherence.snoops;
                row.push_back(std::to_string(c));
            }
            const double scaling =
                last ? static_cast<double>(last_n) *
                           static_cast<double>(base) /
                           static_cast<double>(last)
                     : 0.0;
            row.push_back(fmtDouble(scaling, 2) + "x");
            row.push_back(std::to_string(last_snoops));
            t.addRow(row);
        }
        std::printf("-- %s --\n%s\n",
                    std::string(concAppName(app)).c_str(),
                    t.str().c_str());
    }

    if (!opt.common.jsonPath.empty()) {
        exp::writeJsonArtifact(opt.common.jsonPath, "fig_scaling",
                               results);
    }
    return 0;
}
