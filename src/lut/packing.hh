/**
 * @file
 * 4-bit operand packing.
 *
 * BFree stores 4-bit weights two to a byte (that is where the Fig. 14
 * weight-traffic halving comes from). The packing is little-nibble
 * first: element 2i in bits [3:0], element 2i+1 in bits [7:4], each a
 * two's-complement signed nibble in [-8, 7].
 *
 * Frozen 4-bit matmul tiles use their own layout (PackedTile): offset
 * nibbles v + 8 in [0, 15], grouped so a vector kernel can feed both
 * nibbles of a load straight into an unsigned-by-signed byte multiply.
 */

#ifndef BFREE_LUT_PACKING_HH
#define BFREE_LUT_PACKING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bfree::lut {

/** Saturate @p v into the signed 4-bit range [-8, 7]. */
std::int8_t saturate_int4(std::int32_t v);

/**
 * Pack signed 4-bit values (stored in int8) into bytes. Values outside
 * [-8, 7] are a caller bug and panic. Odd lengths pad the final high
 * nibble with zero.
 */
std::vector<std::uint8_t> pack_int4(const std::vector<std::int8_t> &v);

/** Unpack @p count values from a packed buffer. */
std::vector<std::int8_t> unpack_int4(const std::vector<std::uint8_t> &p,
                                     std::size_t count);

/** Packed size in bytes for @p count 4-bit values. */
constexpr std::size_t
packed_int4_bytes(std::size_t count)
{
    return (count + 1) / 2;
}

/**
 * An n x k transposed-B matmul tile of 4-bit weights, two to a byte.
 *
 * Each weight v in [-8, 7] is stored as the unsigned nibble v + 8, so
 * a kernel multiplies nibbles by the signed int8 A row with an
 * unsigned-by-signed byte multiply-add (every pair sum stays within
 * 2 * 15 * 128 = 3840) and subtracts 8 * sum(A) per row afterwards;
 * the result is the int8 product mod 2^32. Values outside [-8, 7]
 * wrap mod 16 on packing (+8 reads back as -8).
 *
 * Every row is padded to a whole number of 64 weights (padding reads
 * as 0) and is rowBytes(cols) bytes long. A row is a run of 128-weight
 * groups of 64 bytes, plus one 64-weight half group of 32 bytes when
 * the padded length is an odd multiple of 64. In a group of g weights
 * starting at weight s, byte b holds weight s + b in its low nibble
 * and weight s + g / 2 + b in its high nibble: one 64-byte load
 * covers 128 weights whose A operands are two contiguous 64-byte runs,
 * and a 32-byte load covers half of them.
 */
struct PackedTile
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<std::uint8_t> bytes;

    /** Bytes one packed row of @p cols weights occupies. */
    static constexpr std::size_t
    rowBytes(std::size_t cols)
    {
        return (cols + 63) / 64 * 32;
    }

    /** First byte of row @p r. */
    const std::uint8_t *
    row(std::size_t r) const
    {
        return bytes.data() + r * rowBytes(cols);
    }
};

/** Size @p t for a @p rows x @p cols tile; its contents are
 *  unspecified until every row is packed. */
void init_packed_tile(PackedTile &t, std::size_t rows, std::size_t cols);

/**
 * Pack rows [@p r0, @p r1) of a sized tile from @p src, which holds
 * those rows only (row-major, t.cols int8 values each).
 */
void pack_tile_rows(const std::int8_t *src, std::size_t r0,
                    std::size_t r1, PackedTile &t);

/** Size @p t for a @p rows x @p cols tile and pack @p m into it. */
void pack_tile(const std::int8_t *m, std::size_t rows, std::size_t cols,
               PackedTile &t);

/** Unpack row @p r of @p t into @p dst (t.cols values in [-8, 7]). */
void unpack_tile_row(const PackedTile &t, std::size_t r, std::int8_t *dst);

} // namespace bfree::lut

#endif // BFREE_LUT_PACKING_HH
