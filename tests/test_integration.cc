/**
 * @file
 * Full-system integration: every (application x configuration) pair
 * simulates to completion; safe configurations always pass the
 * persist-ordering audit; the unsafe ones demonstrably violate it;
 * and the relative performance of the configurations has the shape
 * of the paper's Figure 9.
 */

#include <gtest/gtest.h>

#include "apps/harness.hh"
#include "apps/kernels.hh"

namespace ede {
namespace {

using GridParam = std::tuple<AppId, Config>;

class GridTest : public ::testing::TestWithParam<GridParam>
{
};

TEST_P(GridTest, RunsToCompletionAndStaysFunctional)
{
    const auto [app, cfg] = GetParam();
    RunSpec spec;
    spec.txns = 3;
    spec.opsPerTxn = 5;
    WorkloadHarness h(app, cfg, spec);
    h.enableAudit();
    h.generate();
    const Cycle cycles = h.simulate();
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(h.system().core().stats().retired, h.trace().size());
    EXPECT_TRUE(h.app().checkFinal());
    // NVM traffic actually happened.
    EXPECT_GT(h.system().mem().controller().nvm().stats()
              .writesAccepted, 0u);
    // Safe configurations never let an update become visible before
    // its undo-log entry is durable.
    if (!configIsUnsafe(cfg)) {
        EXPECT_TRUE(h.audit().clean()) << "config "
                                       << configName(cfg);
    }
}

TEST_P(GridTest, TimingImageConvergesToFunctionalState)
{
    const auto [app, cfg] = GetParam();
    RunSpec spec;
    spec.txns = 2;
    spec.opsPerTxn = 4;
    WorkloadHarness h(app, cfg, spec);
    h.generate();
    h.simulate();
    // After the run drains, every store has been applied in
    // visibility order; the coherent image must equal the functional
    // one on the log state word (a location every config touches).
    const Addr state = h.framework().logLayout().stateAddr;
    EXPECT_EQ(h.system().timingImage().read<std::uint64_t>(state),
              h.system().volatileImage().read<std::uint64_t>(state));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, GridTest,
    ::testing::Combine(::testing::ValuesIn(kAllApps),
                       ::testing::ValuesIn(kAllConfigs)),
    [](const auto &info) {
        return std::string(appName(std::get<0>(info.param))) + "_" +
               std::string(configName(std::get<1>(info.param)));
    });

TEST(UnsafeConfigs, UnsafeOrderingIsObservable)
{
    // U removes every ordering: with enough independent updates the
    // fast element store overtakes the slow log persist.
    RunSpec spec;
    spec.txns = 4;
    spec.opsPerTxn = 25;
    WorkloadHarness h(AppId::Update, Config::U, spec);
    h.enableAudit();
    h.generate();
    h.simulate();
    const AuditReport report = h.audit();
    EXPECT_GT(report.violations, 0u)
        << "U should reorder updates ahead of log persists";
}

TEST(UnsafeConfigs, StoreBarrierGuaranteesNothingForPersists)
{
    // SU's DMB ST architecturally does not order DC CVAP (Section
    // II-A).  Our default models conservative hardware that stalls
    // anyway (audit comes out clean -- which is why the paper's SU
    // is only ~5% faster than B), but hardware exploiting the
    // architectural permission loses the undo-log invariant.
    RunSpec spec;
    spec.txns = 4;
    spec.opsPerTxn = 25;
    {
        WorkloadHarness h(AppId::Update, Config::SU, spec);
        h.enableAudit();
        h.generate();
        h.simulate();
        EXPECT_EQ(h.audit().violations, 0u)
            << "conservative LSQ timing should not reorder";
    }
    {
        SimParams aggressive = makeParams(Config::SU);
        aggressive.core.dmbStCoversCvap = false;
        WorkloadHarness h(AppId::Update, Config::SU, spec, AppParams{},
                          aggressive);
        h.enableAudit();
        h.generate();
        h.simulate();
        EXPECT_GT(h.audit().violations, 0u)
            << "an aggressive LSQ may expose the SU hazard";
    }
}

TEST(Figure9Shape, ConfigOrderingOnUpdateKernel)
{
    RunSpec spec;
    spec.txns = 20;
    spec.opsPerTxn = 25;
    std::map<Config, Cycle> cycles;
    for (Config cfg : kAllConfigs) {
        WorkloadHarness h(AppId::Update, cfg, spec);
        h.generate();
        h.simulate();
        cycles[cfg] = h.opPhaseCycles();
    }
    // The paper's ordering: B slowest, then SU (barely faster), then
    // IQ, then WB, with U the floor.  SU/B and WB/U run close; allow
    // a little noise on those.
    EXPECT_LE(cycles[Config::SU], cycles[Config::B] * 102 / 100);
    EXPECT_GT(cycles[Config::B], cycles[Config::IQ]);
    EXPECT_GT(cycles[Config::SU], cycles[Config::IQ]);
    EXPECT_GT(cycles[Config::IQ], cycles[Config::WB]);
    EXPECT_GE(cycles[Config::WB] * 102 / 100, cycles[Config::U]);
    EXPECT_GT(cycles[Config::B], cycles[Config::U] * 14 / 10)
        << "the B-to-U spread should be paper-sized (>1.4x)";
}

TEST(Figure9Shape, EdeRemovesFencesFromTheTrace)
{
    RunSpec spec;
    spec.txns = 2;
    spec.opsPerTxn = 10;
    WorkloadHarness hb(AppId::Swap, Config::B, spec);
    WorkloadHarness hw(AppId::Swap, Config::WB, spec);
    hb.generate();
    hw.generate();
    EXPECT_GT(hb.trace().fenceCount(), 20u); // One DSB per pWrite.
    // EDE leaves only the setup fence.
    EXPECT_LE(hw.trace().fenceCount(), 1u);
    EXPECT_GT(hw.trace().edeCount(), 0u);
}

TEST(Figure11Shape, EdeImprovesIssueThroughput)
{
    RunSpec spec;
    spec.txns = 4;
    spec.opsPerTxn = 20;
    WorkloadHarness hb(AppId::Update, Config::B, spec);
    WorkloadHarness hw(AppId::Update, Config::WB, spec);
    hb.generate();
    hw.generate();
    hb.simulate();
    hw.simulate();
    const double ipc_b = hb.system().core().stats().ipc();
    const double ipc_wb = hw.system().core().stats().ipc();
    EXPECT_GT(ipc_wb, ipc_b);
}

TEST(Figure10Shape, UnsafeKeepsNvmBufferFuller)
{
    // Long enough that media writes (and hence occupancy samples)
    // land during the run for every configuration.
    RunSpec spec;
    spec.txns = 20;
    spec.opsPerTxn = 25;
    WorkloadHarness hb(AppId::Update, Config::B, spec);
    WorkloadHarness hu(AppId::Update, Config::U, spec);
    hb.generate();
    hu.generate();
    hb.simulate();
    hu.simulate();
    const double mean_b =
        hb.system().mem().controller().nvm().occupancyDist().mean();
    const double mean_u =
        hu.system().mem().controller().nvm().occupancyDist().mean();
    EXPECT_GT(mean_u, mean_b);
}

} // namespace
} // namespace ede
