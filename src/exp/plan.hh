/**
 * @file
 * Declarative experiment plans.
 *
 * An ExperimentPlan is the full input of one evaluation sweep: a list
 * of labeled (application, configuration, workload, simulator
 * parameters) points.  The plan says *what* to simulate; the runner
 * (runner.hh) decides how -- in parallel, through the result cache --
 * so every bench, ablation sweep and the fault campaign can share one
 * orchestration path instead of hand-rolled nested loops.
 */

#ifndef EDE_EXP_PLAN_HH
#define EDE_EXP_PLAN_HH

#include <functional>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "apps/concurrent.hh"
#include "apps/driver.hh"
#include "sim/config.hh"
#include "traffic/stream_mux.hh"

namespace ede {
namespace exp {

/** One cell of an experiment grid. */
struct ExperimentPoint
{
    /** Display/lookup key; defaults to "<app>/<config>". */
    std::string label;
    AppId app = AppId::Update;
    Config config = Config::B;
    RunSpec spec{};
    AppParams appParams{};
    SimParams simParams{};  ///< Must match `config` (harness asserts).

    /**
     * @name Concurrent-kernel cells (bench/fig_scaling).
     *
     * When `conc` is set the point simulates a concurrent kernel
     * (apps/concurrent.hh) on simParams.coreCount lock-step cores
     * instead of a Table II application; `app`, `spec` and
     * `appParams` are ignored.  The conc fields are fingerprinted
     * only when set, so single-app fingerprints never depend on
     * them.
     */
    /// @{
    bool conc = false;
    ConcApp concApp = ConcApp::MsQueue;
    int concOpsPerCore = 256;
    std::uint64_t concSeed = 42;
    /// @}

    /**
     * @name Open-loop traffic cells (bench/fig_traffic).
     *
     * When `traffic` is set the point runs a traffic plan
     * (traffic/stream_mux.hh) through RunRequest::ofTraffic on
     * simParams.coreCount cores; `app`, `spec`, `appParams` and the
     * conc fields are ignored.  Like the conc block, the traffic
     * fields are fingerprinted only when set.
     */
    /// @{
    bool traffic = false;
    traffic::TrafficPlan trafficPlan{};
    /// @}
};

/**
 * Every simulation input of a point; the label is presentation only.
 * The conc and traffic blocks count only when their flag is set.
 */
void
visitFields(auto &v, FieldsOf<ExperimentPoint> auto &p)
{
    v("app", p.app, appName);
    v("config", p.config, configName);
    v("spec", p.spec);
    v("app_params", p.appParams);
    v("sim_params", p.simParams);
    v("conc", p.conc);
    v("conc_app", omitUnless(p.concApp, p.conc), concAppName);
    v("conc_ops_per_core", omitUnless(p.concOpsPerCore, p.conc));
    v("conc_seed", omitUnless(p.concSeed, p.conc));
    v("traffic", p.traffic);
    v("traffic_plan", omitUnless(p.trafficPlan, p.traffic));
}

/**
 * What a point simulates, as cache snapshots and JSON cells name it:
 * "traffic", the concurrent kernel, or the application.
 */
inline std::string_view
cellAppName(const ExperimentPoint &point)
{
    if (point.traffic)
        return "traffic";
    return point.conc ? concAppName(point.concApp) : appName(point.app);
}

/** The default point label for @p app under @p cfg. */
std::string pointLabel(AppId app, Config cfg);

/** A list of labeled points, built by grid/axis helpers. */
class ExperimentPlan
{
  public:
    /** Append a fully specified point. */
    ExperimentPlan &add(ExperimentPoint point);

    /** Append one (app, config) cell with Table I parameters. */
    ExperimentPlan &addCell(AppId app, Config cfg, const RunSpec &spec,
                            const AppParams &app_params = {});

    /** Append the full apps x configs grid (the figure sweeps). */
    ExperimentPlan &addGrid(const std::vector<AppId> &apps,
                            const std::vector<Config> &configs,
                            const RunSpec &spec,
                            const AppParams &app_params = {});

    /**
     * Append one ablation axis point: for each configuration, start
     * from Table I parameters and apply @p tweak.  Labels are
     * "<axis>/<config>".
     */
    ExperimentPlan &
    addTweakAxis(const std::string &axis, AppId app,
                 const std::vector<Config> &configs, const RunSpec &spec,
                 const std::function<void(SimParams &)> &tweak);

    const std::vector<ExperimentPoint> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

  private:
    std::vector<ExperimentPoint> points_;
};

} // namespace exp
} // namespace ede

#endif // EDE_EXP_PLAN_HH
