#include "fault/fault_plan.hh"

#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace ede {

const char *
tearKindName(TearKind kind)
{
    switch (kind) {
      case TearKind::None:
        return "none";
      case TearKind::Prefix:
        return "prefix";
      case TearKind::Suffix:
        return "suffix";
      case TearKind::Interleaved:
        return "interleaved";
    }
    return "unknown";
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed << " drain=";
    if (drainLines == kDrainAll)
        os << "all";
    else
        os << drainLines;
    os << " tear=" << tearKindName(tear);
    if (acceptFaultRate > 0.0) {
        os << " acceptFaultRate=" << acceptFaultRate
           << " maxConsecRejects=" << maxConsecutiveRejects;
    }
    return os.str();
}

FaultPlan
makeFaultPlan(std::uint64_t seed, std::uint32_t wpqSlots)
{
    FaultPlan plan;
    plan.seed = seed;
    Rng rng(seed);
    // Mix perfect drains in so every crash point is also probed
    // without the power-fail fault (the classic torn/clean split).
    if (rng.chance(0.25)) {
        plan.drainLines = FaultPlan::kDrainAll;
    } else {
        plan.drainLines =
            static_cast<std::uint32_t>(rng.below(wpqSlots + 1));
    }
    switch (rng.below(4)) {
      case 0:
        plan.tear = TearKind::None;
        break;
      case 1:
        plan.tear = TearKind::Prefix;
        break;
      case 2:
        plan.tear = TearKind::Suffix;
        break;
      default:
        plan.tear = TearKind::Interleaved;
        break;
    }
    return plan;
}

std::uint64_t
tornChunkMask(const FaultPlan &plan, std::size_t chunks)
{
    ede_assert(chunks >= 1 && chunks <= 64,
               "torn event must span 1..64 chunks");
    const std::uint64_t full = chunks == 64
        ? ~std::uint64_t{0}
        : (std::uint64_t{1} << chunks) - 1;
    // Decorrelate from the drain/tear draws made in makeFaultPlan.
    Rng rng(plan.seed ^ 0x7ea51237ull);
    switch (plan.tear) {
      case TearKind::None:
        return full;
      case TearKind::Prefix: {
        // Keep 1..chunks-1 leading chunks (chunks == 1: lose it all).
        const std::uint64_t keep =
            chunks == 1 ? 0 : rng.between(1, chunks - 1);
        return (std::uint64_t{1} << keep) - 1;
      }
      case TearKind::Suffix: {
        const std::uint64_t keep =
            chunks == 1 ? 0 : rng.between(1, chunks - 1);
        return full & ~((std::uint64_t{1} << (chunks - keep)) - 1);
      }
      case TearKind::Interleaved: {
        // Random subset, re-drawn until strictly partial.
        std::uint64_t mask = rng.next() & full;
        while (mask == full)
            mask = rng.next() & full;
        return mask;
      }
    }
    return full;
}

AcceptFaultHook
makeAcceptFaultInjector(const FaultPlan &plan)
{
    if (plan.acceptFaultRate <= 0.0)
        return {};
    struct InjectorState
    {
        Rng rng;
        double rate;
        std::uint32_t maxConsecutive;
        std::unordered_map<Addr, std::uint32_t> consecutive;
        explicit InjectorState(const FaultPlan &p)
            : rng(p.seed ^ 0xacceb7ull), rate(p.acceptFaultRate),
              maxConsecutive(p.maxConsecutiveRejects)
        {
        }
    };
    auto state = std::make_shared<InjectorState>(plan);
    return [state](const MemReq &req, Cycle) {
        const Addr line = req.addr & ~Addr{255};
        std::uint32_t &streak = state->consecutive[line];
        if (streak >= state->maxConsecutive ||
            !state->rng.chance(state->rate)) {
            streak = 0;
            return false;
        }
        ++streak;
        return true;
    };
}

FaultPlan
weakestFailingPlan(const FaultPlan &plan,
                   const std::function<bool(const FaultPlan &)> &fails)
{
    FaultPlan benign = plan;
    benign.drainLines = FaultPlan::kDrainAll;
    benign.tear = TearKind::None;

    FaultPlan tear_only = benign;
    tear_only.tear = plan.tear;

    FaultPlan drain_only = benign;
    drain_only.drainLines = plan.drainLines;

    for (const FaultPlan &candidate :
         {benign, tear_only, drain_only, plan}) {
        if (fails(candidate))
            return candidate;
    }
    return plan;  // Unreachable: the caller saw `plan` fail.
}

} // namespace ede
