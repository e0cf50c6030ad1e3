/**
 * @file
 * Differential-test helper: two runs' results must have equal wire
 * forms (exp::toWire) -- every counter, distribution and per-core
 * record the result cache would store.
 */

#ifndef EDE_TESTS_WIRE_TEST_UTIL_HH
#define EDE_TESTS_WIRE_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace ede {

/** Equal wire forms, reporting where they first differ. */
inline void
expectSameWire(const std::string &ref, const std::string &skip)
{
    if (ref == skip)
        return;
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(ref.begin(), ref.end(), skip.begin(), skip.end())
            .first - ref.begin());
    const std::size_t from = at < 80 ? 0 : at - 80;
    ADD_FAILURE() << "wire forms differ at offset " << at
                  << "\n  reference:  ..." << ref.substr(from, 120)
                  << "\n  skip-ahead: ..." << skip.substr(from, 120);
}

} // namespace ede

#endif // EDE_TESTS_WIRE_TEST_UTIL_HH
