/**
 * @file
 * The five architecture configurations of Table III.
 *
 * A configuration has two halves that must agree: how the NVM
 * framework lowers persist-ordering requirements into the instruction
 * stream (DSB SY / DMB ST / EDE keys / nothing), and which EDE
 * enforcement hardware the core models.
 */

#ifndef EDE_SIM_CONFIG_HH
#define EDE_SIM_CONFIG_HH

#include <array>
#include <string_view>

#include "mem/mem_system.hh"
#include "pipeline/params.hh"

namespace ede {

/** Table III configurations. */
enum class Config {
    B,   ///< Baseline: DSB SY enforces all orderings.
    SU,  ///< Store Barrier Unsafe: DMB ST only (x86 SFENCE-like).
    IQ,  ///< EDE, enforced at the issue queue.
    WB,  ///< EDE, enforced at the write buffer.
    U,   ///< Unsafe: all fences removed.
};

/** All configurations in the paper's presentation order. */
inline constexpr std::array<Config, 5> kAllConfigs = {
    Config::B, Config::SU, Config::IQ, Config::WB, Config::U,
};

/** Printable short name matching the paper. */
constexpr std::string_view
configName(Config c)
{
    switch (c) {
      case Config::B: return "B";
      case Config::SU: return "SU";
      case Config::IQ: return "IQ";
      case Config::WB: return "WB";
      case Config::U: return "U";
    }
    return "<bad-config>";
}

/** True for configurations that permit crash-inconsistent reordering. */
constexpr bool
configIsUnsafe(Config c)
{
    return c == Config::SU || c == Config::U;
}

/** True for configurations that use EDE instructions. */
constexpr bool
configUsesEde(Config c)
{
    return c == Config::IQ || c == Config::WB;
}

/** Enforcement hardware required by a configuration. */
constexpr EnforceMode
configEnforceMode(Config c)
{
    switch (c) {
      case Config::IQ: return EnforceMode::IQ;
      case Config::WB: return EnforceMode::WB;
      default: return EnforceMode::None;
    }
}

/** Everything needed to build a System. */
struct SimParams
{
    CoreParams core;     ///< Shared by every core (homogeneous SMP).
    MemSystemParams mem;
    int coreCount = 1;   ///< Cores sharing the hierarchy at the L2.
};

void
visitFields(auto &v, FieldsOf<SimParams> auto &p)
{
    v("core", p.core);
    v("mem", p.mem);
    v("core_count", p.coreCount);
}

/** Table I defaults specialized for configuration @p c. */
inline SimParams
makeParams(Config c)
{
    SimParams p;
    p.core.ede = configEnforceMode(c);
    return p;
}

} // namespace ede

#endif // EDE_SIM_CONFIG_HH
