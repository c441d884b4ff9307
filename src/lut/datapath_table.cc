#include "datapath_table.hh"

namespace bfree::lut {

DatapathTable
build_rom_datapath_table(unsigned bits, const MultLut &rom)
{
    return DatapathTable::build(
        bits, [&](std::int32_t a, std::int32_t b) {
            return multiply_signed(a, b, bits, rom,
                                   LookupSource::BceRom);
        });
}

const DatapathTable &
rom_datapath_table(unsigned bits)
{
    // One function-local static per precision: initialization is
    // thread-safe and happens only for the precision actually used.
    if (bits == 4) {
        static const DatapathTable t4 =
            build_rom_datapath_table(4, MultLut{});
        return t4;
    }
    if (bits == 8) {
        static const DatapathTable t8 =
            build_rom_datapath_table(8, MultLut{});
        return t8;
    }
    bfree_fatal("no datapath table for ", bits, "-bit operands");
}

} // namespace bfree::lut
