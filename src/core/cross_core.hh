/**
 * @file
 * Cross-core WAIT-counter aggregation: the EDE ordering view that
 * spans the coherence point.
 *
 * Each core's private WaitCounters track its own post-retirement
 * window.  On a multi-core machine a WAIT_KEY/WAIT_ALL_KEYS must
 * additionally observe *other* cores' tracked instructions for the
 * named key: an EDK defined by a producer on core 0 and waited on by
 * core 1 only resolves once core 0's tagged stores/cleans have
 * completed at the coherence/persistence point.  CrossCoreOrdering
 * mirrors every core's enter/exit into per-core counter files and
 * answers "is any *remote* core still tracking this key?".
 *
 * The EDM stays strictly per-core: consumer srcID links are renamed
 * locally and never cross the coherence point (a remote producer
 * cannot appear in a local EDM).  Cross-core EDE semantics flow only
 * through the WAIT counters, which is also what keeps the protocol
 * deadlock-free -- counters only ever drain, they never wait.
 *
 * Single-core machines never construct this class, so the historical
 * single-core timing is untouched by the multi-core refactor.
 */

#ifndef EDE_CORE_CROSS_CORE_HH
#define EDE_CORE_CROSS_CORE_HH

#include <cstdint>
#include <vector>

#include "core/wait_counters.hh"

namespace ede {

/** Shared WAIT-counter aggregation across all cores of a System. */
class CrossCoreOrdering
{
  public:
    explicit CrossCoreOrdering(unsigned coreCount)
        : perCore_(coreCount)
    {
        ede_assert(coreCount >= 1, "need at least one core");
    }

    /**
     * Core @p core tracks an EDE instruction entering its window.  An
     * enter only raises counts, so it can never release a WAIT and
     * is not a change().
     */
    void
    enter(unsigned core, const StaticInst &si)
    {
        perCore_.at(core).enter(si);
    }

    /** Core @p core's tracked EDE instruction completed/squashed. */
    void
    exit(unsigned core, const StaticInst &si)
    {
        perCore_.at(core).exit(si);
        ++changes_;
    }

    /**
     * Count of every exit so far: a core that saw this value and sees
     * it again knows no WAIT it waits on can have been released
     * (CoreGroup::run looks again at the gate of a core asleep behind
     * a WAIT on a difference).
     */
    std::uint64_t changes() const { return changes_; }

    /** True when no core other than @p core is tracking @p key. */
    bool
    remoteKeyClear(unsigned core, Edk key) const
    {
        if (!edkIsReal(key))
            return true;
        for (unsigned c = 0; c < perCore_.size(); ++c) {
            if (c != core && perCore_[c].keyCount(key) != 0)
                return false;
        }
        return true;
    }

    /** True when no core other than @p core is tracking anything. */
    bool
    remoteAllClear(unsigned core) const
    {
        for (unsigned c = 0; c < perCore_.size(); ++c) {
            if (c != core && perCore_[c].allCount() != 0)
                return false;
        }
        return true;
    }

    /** Per-core counter file (tests). */
    const WaitCounters &counters(unsigned core) const
    {
        return perCore_.at(core);
    }

    unsigned coreCount() const
    {
        return static_cast<unsigned>(perCore_.size());
    }

  private:
    std::vector<WaitCounters> perCore_;
    std::uint64_t changes_ = 0;
};

} // namespace ede

#endif // EDE_CORE_CROSS_CORE_HH
