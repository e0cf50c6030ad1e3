/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: EDM
 * operations, instruction encode/decode, cache accesses and
 * end-to-end simulator throughput.  These guard the simulator's own
 * performance (host instructions per simulated cycle), not the
 * paper's results.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/edm.hh"
#include "core/wait_counters.hh"
#include "isa/encoding.hh"
#include "mem/mem_system.hh"
#include "sim/session.hh"
#include "trace/builder.hh"

namespace ede {
namespace {

void
BM_EdmDefineLookupComplete(benchmark::State &state)
{
    Edm edm;
    SeqNum seq = 1;
    for (auto _ : state) {
        const Edk key = static_cast<Edk>(1 + (seq % 15));
        edm.specDefine(key, seq);
        benchmark::DoNotOptimize(edm.specLookup(key));
        edm.complete(key, seq);
        ++seq;
    }
}
BENCHMARK(BM_EdmDefineLookupComplete);

void
BM_EdmSquashRestore(benchmark::State &state)
{
    Edm edm;
    std::vector<std::pair<Edk, SeqNum>> survivors;
    for (SeqNum s = 1; s <= 8; ++s)
        survivors.emplace_back(static_cast<Edk>(s), s);
    for (auto _ : state) {
        edm.squashRestore(survivors);
        benchmark::DoNotOptimize(edm.specLookup(3));
    }
}
BENCHMARK(BM_EdmSquashRestore);

void
BM_WaitCounters(benchmark::State &state)
{
    WaitCounters c;
    StaticInst si;
    si.op = Op::Str;
    si.edkDef = 3;
    si.edkUse = 7;
    for (auto _ : state) {
        c.enter(si);
        benchmark::DoNotOptimize(c.keyClear(3));
        c.exit(si);
    }
}
BENCHMARK(BM_WaitCounters);

void
BM_EncodeDecode(benchmark::State &state)
{
    StaticInst si;
    si.op = Op::Str;
    si.src1 = 3;
    si.base = 0;
    si.size = 8;
    si.edkUse = 1;
    for (auto _ : state) {
        const auto word = encode(si);
        benchmark::DoNotOptimize(decode(*word));
    }
}
BENCHMARK(BM_EncodeDecode);

void
BM_CacheHit(benchmark::State &state)
{
    MemSystem mem{MemSystemParams{}};
    Cycle now = 0;
    // Warm one line.
    mem.warmLine(0x1000, 1);
    for (auto _ : state) {
        if (auto id = mem.sendLoad(0x1000, 8, now)) {
            while (!mem.consumeDone(*id))
                mem.tick(now++);
        }
    }
    benchmark::DoNotOptimize(now);
}
BENCHMARK(BM_CacheHit);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Simulated cycles per host-second on a representative mix.
    Trace t;
    TraceBuilder b(t);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const auto pick = rng.below(10);
        const Addr a = 0x100000 + 64 * rng.below(512);
        if (pick < 4) {
            b.alu(static_cast<RegIndex>(1 + rng.below(8)), kZeroReg);
        } else if (pick < 7) {
            b.ldr(2, 3, a);
        } else if (pick < 9) {
            b.str(4, 5, a, pick);
        } else {
            b.cvap(5, a);
        }
    }
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Session session(SimConfig::paper(Config::B));
        cycles += session.run(RunRequest::of(t)).cycles();
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace ede

BENCHMARK_MAIN();
