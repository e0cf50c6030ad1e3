/**
 * @file
 * Quickstart: build a tiny EDE program by hand, run it on the
 * simulated core, and print what happened.
 *
 * The program is the paper's motivating pair (Figure 7): persist an
 * undo-log entry, then update the element -- with the ordering
 * carried by EDK #1 instead of a DSB.
 */

#include <cstdio>

#include "isa/encoding.hh"
#include "sim/session.hh"
#include "trace/builder.hh"

using namespace ede;

int
main()
{
    // A one-core machine with the write-buffer EDE realization
    // (Table I parameters), recording every completion cycle.
    Session session(SimConfig::paper(Config::WB));
    System &sys = session.system();
    sys.recordCompletions(true);

    // Addresses: a log slot and an element, both in NVM.
    const Addr nvm = MemSystemParams{}.map.nvmBase();
    const Addr slot = nvm + 0x1000;
    const Addr elem = nvm + 0x2000;

    // Assemble the Figure 7 sequence.
    Trace trace;
    TraceBuilder b(trace);
    b.movImm(0, static_cast<std::int64_t>(elem));     // x0 = &elem
    b.ldr(1, 0, elem);                                // x1 = old value
    b.movImm(2, static_cast<std::int64_t>(slot));     // x2 = slot
    b.stp(0, 1, 2, slot, elem, 0);                    // log {addr,old}
    const auto log_cvap = b.cvap(2, slot, {1, 0});    // dc cvap (1,0)
    b.movImm(3, 42);                                  // new value
    const auto upd = b.str(3, 0, elem, 42, 0, {0, 1});// str (0,1)
    b.cvap(0, elem, {2, 0});                          // persist elem

    std::printf("program:\n");
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto word = encode(trace[i].si);
        if (word) {
            std::printf("  [%zu] %-40s encoding=0x%016llx\n", i,
                        disassemble(trace[i]).c_str(),
                        static_cast<unsigned long long>(*word));
        } else {
            // Wide address immediates need a movz/movk sequence on
            // real AArch64; the model folds them into one mov.
            std::printf("  [%zu] %-40s (wide imm; lowered as a mov "
                        "sequence)\n", i,
                        disassemble(trace[i]).c_str());
        }
    }

    const SimResult r = session.run(RunRequest::of(trace));
    if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.error.describe().c_str());
        return 1;
    }

    std::printf("\nran %zu instructions in %llu cycles (IPC %.2f)\n",
                trace.size(),
                static_cast<unsigned long long>(r.cycles()),
                r.stats.core.ipc());
    std::printf("log persist completed at cycle %llu\n",
                static_cast<unsigned long long>(
                    sys.completionCycles()[log_cvap]));
    std::printf("element store visible at cycle %llu "
                "(never before the log persist)\n",
                static_cast<unsigned long long>(
                    sys.completionCycles()[upd]));
    std::printf("element value in coherent memory: %llu\n",
                static_cast<unsigned long long>(
                    sys.timingImage().read<std::uint64_t>(elem)));
    std::printf("fences executed: %zu (the DSB of Figure 4 is "
                "gone)\n", trace.fenceCount());
    return 0;
}
