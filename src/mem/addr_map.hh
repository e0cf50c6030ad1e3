/**
 * @file
 * Physical address map: the hybrid DRAM + NVM split.
 *
 * Matching the paper's setup (Section VI-A), one controller fronts
 * both technologies and the physical address space is statically
 * split: [0, dramBytes) targets DRAM, [dramBytes, dramBytes +
 * nvmBytes) targets NVM.
 */

#ifndef EDE_MEM_ADDR_MAP_HH
#define EDE_MEM_ADDR_MAP_HH

#include "common/fields.hh"
#include "common/types.hh"

namespace ede {

/** Static DRAM/NVM address split. */
struct AddrMap
{
    Addr dramBytes = 2ull << 30;  ///< 2 GB of DRAM.
    Addr nvmBytes = 2ull << 30;   ///< 2 GB of NVM.

    /** First NVM byte address. */
    Addr nvmBase() const { return dramBytes; }

    /** One past the last valid address. */
    Addr limit() const { return dramBytes + nvmBytes; }

    /** True when @p addr targets the NVM region. */
    bool
    isNvm(Addr addr) const
    {
        return addr >= dramBytes && addr < limit();
    }

    /** True when @p addr targets the DRAM region. */
    bool isDram(Addr addr) const { return addr < dramBytes; }
};

void
visitFields(auto &v, FieldsOf<AddrMap> auto &m)
{
    v("dram_bytes", m.dramBytes);
    v("nvm_bytes", m.nvmBytes);
}

} // namespace ede

#endif // EDE_MEM_ADDR_MAP_HH
