#include "packing.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bfree::lut {

std::int8_t
saturate_int4(std::int32_t v)
{
    return static_cast<std::int8_t>(std::clamp(v, -8, 7));
}

std::vector<std::uint8_t>
pack_int4(const std::vector<std::int8_t> &v)
{
    std::vector<std::uint8_t> out(packed_int4_bytes(v.size()), 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i] < -8 || v[i] > 7)
            bfree_panic("pack_int4: value ", int(v[i]),
                        " outside the signed 4-bit range");
        const auto nibble =
            static_cast<std::uint8_t>(static_cast<std::uint8_t>(v[i])
                                      & 0xF);
        if (i % 2 == 0)
            out[i / 2] |= nibble;
        else
            out[i / 2] |= static_cast<std::uint8_t>(nibble << 4);
    }
    return out;
}

std::vector<std::int8_t>
unpack_int4(const std::vector<std::uint8_t> &p, std::size_t count)
{
    if (packed_int4_bytes(count) > p.size())
        bfree_panic("unpack_int4: buffer of ", p.size(),
                    " bytes cannot hold ", count, " values");
    std::vector<std::int8_t> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t byte = p[i / 2];
        std::uint8_t nibble =
            i % 2 == 0 ? (byte & 0xF)
                       : static_cast<std::uint8_t>(byte >> 4);
        // Sign-extend the two's-complement nibble.
        if (nibble & 0x8)
            nibble |= 0xF0;
        out[i] = static_cast<std::int8_t>(nibble);
    }
    return out;
}

namespace {

/** The stored nibble of weight @p c of a row @p in of @p cols values:
 *  v + 8 mod 16, or 8 (a zero weight) in the padding. */
std::uint8_t
tile_nibble(const std::int8_t *in, std::size_t cols, std::size_t c)
{
    return c < cols ? static_cast<std::uint8_t>((in[c] + 8) & 0xF) : 8;
}

} // namespace

void
init_packed_tile(PackedTile &t, std::size_t rows, std::size_t cols)
{
    t.rows = rows;
    t.cols = cols;
    t.bytes.resize(rows * PackedTile::rowBytes(cols));
}

void
pack_tile_rows(const std::int8_t *src, std::size_t r0, std::size_t r1,
               PackedTile &t)
{
    const std::size_t rb = PackedTile::rowBytes(t.cols);
    for (std::size_t r = r0; r < r1; ++r) {
        std::uint8_t *dst = t.bytes.data() + r * rb;
        const std::int8_t *in = src + (r - r0) * t.cols;
        // Group by group: byte x of a group of 2 * half weights starting
        // at weight 2 * s holds weights 2s + x and 2s + half + x.
        for (std::size_t s = 0; s < rb; s += 64) {
            const std::size_t half = std::min<std::size_t>(64, rb - s);
            const std::int8_t *lo = in + 2 * s, *hi = lo + half;
            if (2 * s + 2 * half <= t.cols) {
                for (std::size_t x = 0; x < half; ++x)
                    dst[s + x] = static_cast<std::uint8_t>(
                        ((lo[x] + 8) & 0xF) | ((hi[x] + 8) & 0xF) << 4);
                continue;
            }
            for (std::size_t x = 0; x < half; ++x)
                dst[s + x] = static_cast<std::uint8_t>(
                    tile_nibble(in, t.cols, 2 * s + x)
                    | tile_nibble(in, t.cols, 2 * s + half + x) << 4);
        }
    }
}

void
pack_tile(const std::int8_t *m, std::size_t rows, std::size_t cols,
          PackedTile &t)
{
    init_packed_tile(t, rows, cols);
    pack_tile_rows(m, 0, rows, t);
}

void
unpack_tile_row(const PackedTile &t, std::size_t r, std::int8_t *dst)
{
    const std::uint8_t *row = t.row(r);
    const std::size_t rb = PackedTile::rowBytes(t.cols);
    for (std::size_t s = 0; s < rb; s += 64) {
        const std::size_t half = std::min<std::size_t>(64, rb - s);
        for (std::size_t x = 0; x < half; ++x) {
            const std::size_t lo = 2 * s + x, hi = lo + half;
            if (lo < t.cols)
                dst[lo] = static_cast<std::int8_t>((row[s + x] & 0xF) - 8);
            if (hi < t.cols)
                dst[hi] = static_cast<std::int8_t>((row[s + x] >> 4) - 8);
        }
    }
}

} // namespace bfree::lut
