/**
 * @file
 * Workload interface and registry (Table II applications).
 *
 * An App is a persistent data structure (or kernel) written against
 * the NvmFramework: it executes functionally on the simulated memory
 * image while emitting the dynamic instruction stream.  Each app also
 * keeps a per-transaction logical history so crash-recovery tests can
 * check that a recovered image equals *some* transaction boundary --
 * the failure-atomicity property the paper's undo logging provides.
 */

#ifndef EDE_APPS_APP_HH
#define EDE_APPS_APP_HH

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "common/fields.hh"
#include "common/random.hh"
#include "nvm/framework.hh"

namespace ede {

/** Table II application identifiers. */
enum class AppId { Update, Swap, Btree, Ctree, Rbtree, Rtree };

/** All applications in the paper's order. */
inline constexpr std::array<AppId, 6> kAllApps = {
    AppId::Update, AppId::Swap, AppId::Btree,
    AppId::Ctree, AppId::Rbtree, AppId::Rtree,
};

/** Printable workload name. */
constexpr std::string_view
appName(AppId id)
{
    switch (id) {
      case AppId::Update: return "update";
      case AppId::Swap: return "swap";
      case AppId::Btree: return "btree";
      case AppId::Ctree: return "ctree";
      case AppId::Rbtree: return "rbtree";
      case AppId::Rtree: return "rtree";
    }
    return "<bad-app>";
}

/** Tunables common to every workload. */
struct AppParams
{
    std::uint64_t seed = 42;

    /**
     * Kernel array length (update/swap).  The default 32 KB array is
     * cache-hot, so the kernels stress persist ordering rather than
     * load latency -- the regime where the paper's Figure 9 spread
     * appears.
     */
    std::size_t arrayLen = 4096;
};

void
visitFields(auto &v, FieldsOf<AppParams> auto &p)
{
    v("seed", p.seed);
    v("array_len", p.arrayLen);
}

/** A workload generating operations through the framework. */
class App
{
  public:
    explicit App(NvmFramework &fw) : fw_(fw) {}
    virtual ~App() = default;

    /** Workload name (Table II). */
    virtual std::string_view name() const = 0;

    /** Allocate and persist the initial structure (outside any tx). */
    virtual void setup() = 0;

    /** Emit one operation; must be called inside an open tx. */
    virtual void op(Rng &rng) = 0;

    /** The driver committed the current transaction. */
    virtual void noteCommit() = 0;

    /** Validate the functional end state (volatile image). */
    virtual bool checkFinal() const = 0;

    /**
     * Validate a post-recovery crash image: structure must be intact
     * and its logical contents must equal some transaction boundary.
     */
    virtual bool checkRecovered(const MemoryImage &img) const = 0;

  protected:
    NvmFramework &fw_;
};

/** Instantiate application @p id over framework @p fw. */
std::unique_ptr<App> makeApp(AppId id, NvmFramework &fw,
                             const AppParams &params);

} // namespace ede

#endif // EDE_APPS_APP_HH
