#include "exp/fingerprint.hh"

#include <cstring>

#include "exp/fields.hh"

namespace ede {
namespace exp {

void
FingerprintHasher::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash_ ^= p[i];
        hash_ *= 0x100000001b3ull;  // FNV prime.
    }
}

void
FingerprintHasher::field(std::string_view name, std::uint64_t value)
{
    bytes(name.data(), name.size());
    bytes(&value, sizeof(value));
}

void
FingerprintHasher::field(std::string_view name, bool value)
{
    field(name, static_cast<std::uint64_t>(value ? 1 : 0));
}

void
FingerprintHasher::field(std::string_view name, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    field(name, bits);
}

void
FingerprintHasher::field(std::string_view name, std::string_view value)
{
    bytes(name.data(), name.size());
    field("len", static_cast<std::uint64_t>(value.size()));
    bytes(value.data(), value.size());
}

std::uint64_t
fingerprintPoint(const ExperimentPoint &point)
{
    return fingerprintOf("point", point);
}

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[fingerprint & 0xf];
        fingerprint >>= 4;
    }
    return out;
}

} // namespace exp
} // namespace ede
