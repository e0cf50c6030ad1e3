#include "fault/sweep.hh"

#include "common/random.hh"
#include "exp/fingerprint.hh"

namespace ede {

std::optional<Config>
configFromName(const std::string &name)
{
    for (Config c : kAllConfigs) {
        if (configName(c) == name)
            return c;
    }
    return std::nullopt;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
    return rng.next();
}

std::uint64_t
configSalt(Config cfg)
{
    return static_cast<std::uint64_t>(cfg) + 1;
}

std::uint64_t
configJobFingerprint(const char *keyPrefix, std::uint64_t sweepId,
                     Config cfg)
{
    const std::string prefix = keyPrefix;
    exp::FingerprintHasher h;
    h.field(prefix + ".sweep", sweepId);
    h.field(prefix + ".config", configName(cfg));
    return h.value();
}

} // namespace ede
