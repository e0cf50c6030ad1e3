#include "exp/profile.hh"

#include <cstdio>

namespace ede {

std::string
describeProfile(const HostProfile &profile)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%.2f Mcyc/s, %.1f%% skipped (%s ticking)",
                  profile.cyclesPerHostSecond() / 1e6,
                  profile.skipRatio() * 100.0,
                  profile.referenceTicking ? "reference" : "skip-ahead");
    return buf;
}

} // namespace ede
