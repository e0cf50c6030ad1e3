/**
 * @file
 * Figure 8 reporter: the four-instruction, two-dependence pattern
 * under the IQ and WB realizations.
 *
 * Reproduces the paper's timeline argument quantitatively: IQ stalls
 * the dependent instructions at the issue queue and serializes the
 * pairs; WB lets them retire and orders only the pushes, approaching
 * the ideal timeline.
 */

#include <cstdio>

#include "common/stats.hh"
#include "sim/session.hh"
#include "trace/builder.hh"

using namespace ede;

namespace {

struct PatternRun
{
    Cycle total = 0;
    std::vector<Cycle> complete;
};

/** Run N repetitions of the Figure 8 pattern under @p cfg. */
PatternRun
runPattern(Config cfg, int reps)
{
    Session session(SimConfig::paper(cfg));
    session.system().recordCompletions(true);

    Trace t;
    TraceBuilder b(t);
    const Addr nvm = MemSystemParams{}.map.nvmBase() + 0x100000;
    const Addr dram0 = 0x100000;
    const Addr dram1 = 0x100040;
    // Warm the consumer lines.
    b.str(1, 2, dram0, 0);
    b.str(1, 2, dram1, 0);
    b.dsbSy();
    std::vector<std::size_t> pattern_idx;
    for (int r = 0; r < reps; ++r) {
        // inst1 -> inst2, inst3 -> inst4 (Figure 8).
        pattern_idx.push_back(
            b.cvap(2, nvm + 128ull * (2 * r), {1, 0}));
        pattern_idx.push_back(b.str(3, 4, dram0, 1, 0, {0, 1}));
        pattern_idx.push_back(
            b.cvap(5, nvm + 128ull * (2 * r + 1), {2, 0}));
        pattern_idx.push_back(b.str(6, 7, dram1, 2, 0, {0, 2}));
    }
    PatternRun run;
    run.total = session.run(RunRequest::of(std::move(t))).cycles();
    for (std::size_t i : pattern_idx)
        run.complete.push_back(session.system().completionCycles()[i]);
    return run;
}

} // namespace

int
main()
{
    std::printf("== Figure 8: IQ vs WB on the 4-instruction "
                "pattern ==\n\n");
    constexpr int kReps = 16;
    const PatternRun iq = runPattern(Config::IQ, kReps);
    const PatternRun wb = runPattern(Config::WB, kReps);

    TextTable t({"design", "total cycles", "cycles/pattern"});
    t.addRow({"IQ", std::to_string(iq.total),
              fmtDouble(static_cast<double>(iq.total) / kReps, 1)});
    t.addRow({"WB", std::to_string(wb.total),
              fmtDouble(static_cast<double>(wb.total) / kReps, 1)});
    std::printf("%s\n", t.str().c_str());
    std::printf("WB/IQ time ratio: %s (paper: WB strictly faster, "
                "Figure 8(a) vs 8(b))\n\n",
                fmtDouble(static_cast<double>(wb.total) / iq.total, 3)
                    .c_str());

    std::printf("first pattern completion cycles "
                "(producer1, consumer1, producer2, consumer2):\n");
    for (int i = 0; i < 4; ++i) {
        std::printf("  inst%d: IQ=%llu WB=%llu\n", i + 1,
                    static_cast<unsigned long long>(iq.complete[i]),
                    static_cast<unsigned long long>(wb.complete[i]));
    }
    return 0;
}
