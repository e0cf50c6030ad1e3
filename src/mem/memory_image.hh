/**
 * @file
 * Functional byte-addressable memory image.
 *
 * The timing model only moves tags and latencies; actual data values
 * live here.  The NVM framework and the workloads read/write this
 * image directly (functional execution), and the audit module keeps a
 * second image that is updated *in persist order* as the simulator
 * pushes lines to the NVM media, so crash states are real memory
 * states.
 */

#ifndef EDE_MEM_MEMORY_IMAGE_HH
#define EDE_MEM_MEMORY_IMAGE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace ede {

/** Sparse paged memory holding the functional state. */
class MemoryImage
{
  public:
    /** Read @p len bytes at @p addr into @p out (zero-fill untouched). */
    void read(Addr addr, void *out, std::size_t len) const;

    /** Write @p len bytes from @p in at @p addr. */
    void write(Addr addr, const void *in, std::size_t len);

    /** Typed read of a trivially copyable value. */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed write of a trivially copyable value. */
    template <typename T>
    void
    write(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /** Copy a byte range from another image (used for crash states). */
    void copyRange(const MemoryImage &src, Addr addr, std::size_t len);

    /** Number of pages materialized (for tests). */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Call @p fn(pageAddr, bytes) for every materialized page, in no
     * particular order; bytes spans the whole page.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &[addr, page] : pages_)
            fn(addr, std::span<const std::uint8_t>(page));
    }

    /**
     * Call @p fn(addr, bytes) for every materialized page overlapping
     * [@p addr, @p addr + @p len), in address order; bytes spans the
     * page's part of the range and starts at addr.  Absent pages read
     * as zeros and are skipped: one page lookup per page, no copy.
     */
    template <typename Fn>
    void
    forEachPageIn(Addr addr, std::size_t len, Fn &&fn) const
    {
        const Addr end = addr + len;
        while (addr < end) {
            const Addr page_addr = addr & ~(kPageSize - 1);
            const std::size_t off = addr - page_addr;
            const std::size_t chunk =
                std::min<std::size_t>(end - addr, kPageSize - off);
            if (const Page *page = findPage(page_addr)) {
                fn(addr, std::span<const std::uint8_t>(
                             page->data() + off, chunk));
            }
            addr += chunk;
        }
    }

    /**
     * Canonical content hash: equal for images with identical byte
     * contents regardless of which pages happen to be materialized
     * (an absent page reads as zeros, so all-zero pages are excluded
     * before hashing).  Used by the crash model checker to
     * deduplicate materialized crash states.
     */
    std::uint64_t canonicalContentHash() const;

    /** Byte-for-byte content equality under the same zero convention. */
    bool contentEquals(const MemoryImage &other) const;

    /** Drop all contents. */
    void clear() { pages_.clear(); }

  private:
    static constexpr std::size_t kPageBits = 12;
    static constexpr std::size_t kPageSize = 1ull << kPageBits;

    using Page = std::vector<std::uint8_t>;

    const Page *findPage(Addr page_addr) const;
    Page &getPage(Addr page_addr);

    std::unordered_map<Addr, Page> pages_;
};

} // namespace ede

#endif // EDE_MEM_MEMORY_IMAGE_HH
