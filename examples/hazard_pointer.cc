/**
 * @file
 * Section VIII example: hazard-pointer announcement without the full
 * fence, using the EDE load variant.
 *
 * Shows the exact instruction sequences side by side and the cycles
 * a single announcement costs under each.
 */

#include <cstdio>

#include "sim/session.hh"
#include "trace/builder.hh"

using namespace ede;

namespace {

Cycle
announceLoop(bool use_ede, int iters)
{
    Trace t;
    TraceBuilder b(t);
    const Addr elem_loc = 0x200000;
    const Addr hazard = 0x300000;
    const Addr nodes = 0x400000;
    b.str(1, 2, elem_loc, 0xabc);
    b.str(1, 2, hazard, 0);
    b.dsbSy();
    for (int i = 0; i < iters; ++i) {
        // Figure 12 body.
        b.ldr(3, 1, elem_loc);
        if (use_ede) {
            b.str(3, 2, hazard, 0xabc, 0, {1, 0});
            b.ldr(4, 1, elem_loc, 0, {0, 1});
        } else {
            b.str(3, 2, hazard, 0xabc);
            b.dsbSy(); // Figure 12's dmb sy (full fence) semantics.
            b.ldr(4, 1, elem_loc);
        }
        b.branchCond("hp.retry", 3, 4, false);
        // Reads of the protected structure: the full fence
        // serializes these; the EDE dependence leaves them free.
        for (int l = 0; l < 3; ++l) {
            b.ldr(static_cast<RegIndex>(5 + l), 8,
                  nodes + 64ull * ((i * 7 + l * 131) % 2048));
        }
    }
    Session session(SimConfig::paper(Config::WB));
    return session.run(RunRequest::of(std::move(t))).cycles();
}

} // namespace

int
main()
{
    std::printf("== Hazard pointer announcement (Section VIII) "
                "==\n\n");
    std::printf("with fence (Figure 12):        with EDE:\n");
    std::printf("  ldr x3, [x1]                   ldr x3, [x1]\n");
    std::printf("  str x3, [x2]                   str (1,0), x3, "
                "[x2]\n");
    std::printf("  dmb sy                         ldr (0,1), x4, "
                "[x1]\n");
    std::printf("  ldr x4, [x1]                   cmp x4, x3\n");
    std::printf("  cmp x4, x3                     b.ne Loop\n");
    std::printf("  b.ne Loop\n\n");

    constexpr int kIters = 500;
    const Cycle fence = announceLoop(false, kIters);
    const Cycle ede = announceLoop(true, kIters);
    std::printf("%d announcements + traversal, fence version: "
                "%llu cycles (%.1f/iter)\n", kIters,
                static_cast<unsigned long long>(fence),
                static_cast<double>(fence) / kIters);
    std::printf("%d announcements + traversal, EDE version:   "
                "%llu cycles (%.1f/iter)\n", kIters,
                static_cast<unsigned long long>(ede),
                static_cast<double>(ede) / kIters);
    std::printf("\nThe EDE load still waits for the announcement "
                "store to complete\n(the required ordering), but the "
                "traversal reads are no longer\nserialized behind a "
                "full fence: %.2fx faster.\n",
                static_cast<double>(fence) / ede);
    return 0;
}
