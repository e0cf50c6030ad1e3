#include "exp/result_cache.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "exp/fields.hh"

namespace ede {
namespace exp {

namespace {

constexpr const char *kMagic = "ede-exp-snapshot";

} // namespace

std::string
serializeCell(const ExperimentCell &cell)
{
    WireWriter w(kMagic);
    w("fingerprint", fingerprintHex(cell.fingerprint));
    w("app", cellAppName(cell.point));
    visitFields(w, cell);
    return w.str();
}

std::optional<ExperimentCell>
deserializeCell(const std::string &text, const ExperimentPoint &point,
                std::uint64_t fingerprint)
{
    ExperimentCell cell;
    std::string fp, app;
    WireReader in(text, kMagic);
    in("fingerprint", fp);
    in("app", app);
    visitFields(in, cell);
    const RunResult &r = cell.result;
    if (!in.done() || fp != fingerprintHex(fingerprint) ||
        app != cellAppName(point) || r.config != point.config ||
        r.coreCount < 1 || r.perCore.size() != r.coreCount)
        return std::nullopt;
    cell.point = point;
    cell.fingerprint = fingerprint;
    cell.fromCache = true;
    return cell;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        ede_fatal("cannot create result-cache directory '", dir_,
                  "': ", ec.message());
    }
    // Sweep temp files stranded by a writer that died mid-store (a
    // crashed or SIGKILLed sweep): they are never renamed into place
    // and would otherwise accumulate forever.  A *live* concurrent
    // writer losing its tmp here merely skips that one store.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (entry.path().filename().string().find(".tmp.") !=
            std::string::npos) {
            std::filesystem::remove(entry.path(), ec);
        }
    }
}

std::string
ResultCache::pathFor(std::uint64_t fingerprint) const
{
    return dir_ + "/" + fingerprintHex(fingerprint) + ".snapshot";
}

std::optional<ExperimentCell>
ResultCache::load(const ExperimentPoint &point,
                  std::uint64_t fingerprint) const
{
    std::ifstream in(pathFor(fingerprint), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return deserializeCell(text.str(), point, fingerprint);
}

void
ResultCache::store(const ExperimentCell &cell) const
{
    const std::string path = pathFor(cell.fingerprint);
    // Unique temp name per thread so parallel jobs never collide;
    // the final rename is atomic, and racing writers of the same
    // fingerprint produce identical bytes.  The cell's HostProfile is
    // deliberately not serialized: host wall time varies run to run
    // (and between ticking modes), which would break that invariant.
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp."
             << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp = tmp_name.str();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            ede_warn("result cache: cannot write '", tmp,
                     "'; skipping store");
            return;
        }
        out << serializeCell(cell);
        out.close();
        if (!out) {
            // Short write (disk full, I/O error): never rename a
            // truncated snapshot into place, and never leak the tmp.
            ede_warn("result cache: short write on '", tmp,
                     "'; skipping store");
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        ede_warn("result cache: rename to '", path,
                 "' failed: ", ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace exp
} // namespace ede
