/**
 * @file
 * The one im2col patch oracle the conv tests compare against, and the
 * seeded conv shapes they run it on.
 *
 * reference_patch is the per-element definition of an int8 im2col
 * patch: walk (c, kh, kw), quantize each in-bounds tap, zero the
 * padding. The production front end (plane quantize, zero-padded
 * staging, SpanView materialization) must reproduce its bytes exactly.
 */

#ifndef BFREE_TESTS_PATCH_ORACLE_HH
#define BFREE_TESTS_PATCH_ORACLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "dnn/layer.hh"
#include "dnn/quantize.hh"
#include "sim/random.hh"

namespace bfree::test {

/**
 * Fill the im2col patch (length inC*kH*kW) of output position
 * (@p oh, @p ow) from the float [c][h][w] map @p in, one element at a
 * time. Padded taps quantize to 0 because q(0) == 0 for every scale.
 */
inline void
reference_patch(const dnn::Layer &l, const dnn::SymQuant &sq,
                const float *in, unsigned oh, unsigned ow,
                std::int8_t *patch)
{
    std::size_t idx = 0;
    for (unsigned c = 0; c < l.input.c; ++c) {
        for (unsigned r = 0; r < l.kernelH; ++r) {
            for (unsigned s = 0; s < l.kernelW; ++s) {
                const int ih = static_cast<int>(oh * l.strideH + r)
                               - static_cast<int>(l.padH);
                const int iw = static_cast<int>(ow * l.strideW + s)
                               - static_cast<int>(l.padW);
                float v = 0.0f;
                if (ih >= 0 && ih < static_cast<int>(l.input.h)
                    && iw >= 0 && iw < static_cast<int>(l.input.w))
                    v = in[(static_cast<std::size_t>(c) * l.input.h
                            + static_cast<std::size_t>(ih))
                               * l.input.w
                           + static_cast<std::size_t>(iw)];
                patch[idx++] = static_cast<std::int8_t>(sq.q(v));
            }
        }
    }
}

/**
 * A seeded conv layer. @p index cycles through four shape families so
 * every few draws cover each: a 1x1 kernel, a kernel larger than the
 * input (reachable only through padding), stride >= kernel (disjoint
 * windows), and free kernel/stride/pad draws. Heights, widths and the
 * two pads are drawn independently (make_conv2), and inC lands on each
 * side of the 32- and 64-byte vector widths.
 */
inline dnn::Layer
generated_conv(sim::Rng &rng, unsigned index)
{
    static constexpr unsigned channels[] = {1, 2, 3, 31, 32, 33,
                                            63, 64, 65};
    const unsigned in_c = channels[rng.uniformInt(0, 8)];
    const unsigned in_h = static_cast<unsigned>(rng.uniformInt(1, 12));
    const unsigned in_w = static_cast<unsigned>(rng.uniformInt(1, 12));
    const unsigned out_c = static_cast<unsigned>(rng.uniformInt(1, 4));
    unsigned kh = static_cast<unsigned>(rng.uniformInt(1, 7));
    unsigned kw = static_cast<unsigned>(rng.uniformInt(1, 7));
    unsigned stride = static_cast<unsigned>(rng.uniformInt(1, 3));
    unsigned pad_h = static_cast<unsigned>(rng.uniformInt(0, 3));
    unsigned pad_w = static_cast<unsigned>(rng.uniformInt(0, 3));
    switch (index % 4) {
      case 0: // 1x1
        kh = kw = 1;
        break;
      case 1: // kernel larger than the input on both axes
        kh = in_h + static_cast<unsigned>(rng.uniformInt(1, 3));
        kw = in_w + static_cast<unsigned>(rng.uniformInt(1, 3));
        break;
      case 2: // disjoint windows
        stride = std::max(stride, std::max(kh, kw));
        break;
      default:
        break;
    }
    // The padded input must hold one window on each axis.
    if (in_h + 2 * pad_h < kh)
        pad_h = (kh - in_h + 1) / 2;
    if (in_w + 2 * pad_w < kw)
        pad_w = (kw - in_w + 1) / 2;
    return dnn::make_conv2("gen" + std::to_string(index),
                           {in_c, in_h, in_w}, out_c, kh, kw, stride,
                           pad_h, pad_w);
}

} // namespace bfree::test

#endif // BFREE_TESTS_PATCH_ORACLE_HH
