#include "exp/journal.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "exp/fields.hh"

namespace ede {
namespace exp {

namespace {

constexpr const char *kJournalMagic = "ede-exp-journal-v1";
constexpr const char *kFailureMagic = "ede-job-failure";

/** FNV-1a over the record body (the line before " crc <hex>"). */
std::uint64_t
lineChecksum(const std::string &body)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : body) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
isPlainToken(char c)
{
    return c > 0x20 && c != '%' && c != 0x7f;
}

} // namespace

std::string
journalEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (isPlainToken(c)) {
            out += c;
        } else {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02x",
                          static_cast<unsigned char>(c));
            out += buf;
        }
    }
    // An empty field still needs a token on the line.
    return out.empty() ? std::string("%") : out;
}

std::string
journalUnescape(const std::string &s)
{
    if (s == "%")
        return {};
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            const std::string hex = s.substr(i + 1, 2);
            out += static_cast<char>(
                std::strtoul(hex.c_str(), nullptr, 16));
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

SweepJournal::SweepJournal(std::string path, std::uint64_t sweepId,
                           std::size_t points, bool resume)
    : path_(std::move(path))
{
    const std::string header_body =
        std::string(kJournalMagic) + " sweep " +
        fingerprintHex(sweepId) + " points " + std::to_string(points);

    bool compatible = false;
    if (resume) {
        std::ifstream in(path_, std::ios::binary);
        std::string line;
        bool first = true;
        while (in && std::getline(in, line)) {
            // Every line ends in " crc <hex>"; anything torn or
            // scribbled (a SIGKILL mid-append) fails the checksum and
            // is dropped, as is everything after it.
            const std::size_t crc_at = line.rfind(" crc ");
            if (crc_at == std::string::npos)
                break;
            const std::string body = line.substr(0, crc_at);
            const std::string crc = line.substr(crc_at + 5);
            if (crc != fingerprintHex(lineChecksum(body)))
                break;
            if (first) {
                first = false;
                if (body != header_body) {
                    ede_warn("journal '", path_, "' belongs to a "
                             "different sweep; starting fresh");
                    break;
                }
                compatible = true;
                continue;
            }
            std::istringstream is(body);
            std::string kind, fp_hex;
            std::size_t index = 0;
            if (!(is >> kind >> index >> fp_hex))
                continue;
            std::string payload;
            if (!(is >> payload))
                continue;
            JournalEntry e;
            e.fingerprint =
                std::strtoull(fp_hex.c_str(), nullptr, 16);
            if (kind == "ok") {
                e.ok = true;
                e.payload = journalUnescape(payload);
            } else if (kind == "quarantine") {
                std::optional<JobFailure> f = fromWire<JobFailure>(
                    journalUnescape(payload), kFailureMagic);
                if (!f)
                    continue;
                e.failure = std::move(*f);
            } else {
                continue;
            }
            replayed_[index] = std::move(e);
        }
    }

    if (!compatible) {
        replayed_.clear();
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        if (!out) {
            ede_fatal("cannot create sweep journal '", path_, "'");
        }
    }
    appendSealedLine(compatible ? std::string() : header_body);
}

void
SweepJournal::appendSealedLine(const std::string &body)
{
    if (body.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out) {
        ede_warn("cannot append to sweep journal '", path_, "'");
        return;
    }
    out << body << " crc " << fingerprintHex(lineChecksum(body))
        << '\n';
    out.flush();
}

void
SweepJournal::recordOk(std::size_t index, std::uint64_t fingerprint,
                       const std::string &payload)
{
    std::ostringstream os;
    os << "ok " << index << ' ' << fingerprintHex(fingerprint) << ' '
       << journalEscape(payload);
    appendSealedLine(os.str());
}

void
SweepJournal::recordQuarantine(std::size_t index,
                               std::uint64_t fingerprint,
                               const JobFailure &failure)
{
    std::ostringstream os;
    os << "quarantine " << index << ' ' << fingerprintHex(fingerprint)
       << ' ' << journalEscape(toWire(kFailureMagic, failure));
    appendSealedLine(os.str());
}

} // namespace exp
} // namespace ede
