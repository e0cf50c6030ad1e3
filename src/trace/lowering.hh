/**
 * @file
 * The Table III lowering of the two persist-ordering idioms.
 *
 * Every trace generator -- the NVM framework (nvm/framework.cc), the
 * concurrent kernels (apps/concurrent.cc) and the traffic streams
 * (traffic/stream_mux.cc) -- orders persists with the same two
 * idioms, and each configuration lowers them to its own
 * instructions.  They are written out once, here.
 */

#ifndef EDE_TRACE_LOWERING_HH
#define EDE_TRACE_LOWERING_HH

#include "sim/config.hh"
#include "trace/builder.hh"

namespace ede {

/**
 * The persist-to-publish ordering token, between a DC CVAP and the
 * store that publishes what it persisted: DSB SY on B; DMB ST on SU,
 * which orders stores but not the DC CVAP -- why SU is unsafe;
 * nothing on IQ and WB, whose EDE key operands carry the dependence,
 * nor on U, which drops it.
 */
inline void
emitOrderingToken(TraceBuilder &b, Config cfg)
{
    switch (cfg) {
      case Config::B:
        b.dsbSy();
        break;
      case Config::SU:
        b.dmbSt();
        break;
      case Config::IQ:
      case Config::WB:
      case Config::U:
        break;
    }
}

/**
 * The drain that makes earlier persists durable before what follows
 * (a commit step, a lock release, a grace period): the ordering
 * token on B and SU, WAIT_KEY on @p key -- WAIT_ALL_KEYS with
 * @p allKeys -- on IQ and WB, nothing on U.
 */
inline void
emitDrain(TraceBuilder &b, Config cfg, Edk key, bool allKeys = false)
{
    if (!configUsesEde(cfg))
        emitOrderingToken(b, cfg);
    else if (allKeys)
        b.waitAllKeys();
    else
        b.waitKey(key);
}

} // namespace ede

#endif // EDE_TRACE_LOWERING_HH
