#include "functional.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "bce/simd_kernels.hh"
#include "dnn/im2col.hh"
#include "mem/micro_op_energy.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace bfree::core {

FunctionalExecutor::FunctionalExecutor(const tech::CacheGeometry &geom,
                                       const tech::TechParams &tech,
                                       bce::ExecTier tier)
    : geom(geom), tech(tech), subarray(geom, tech, account),
      bce(subarray, tech, account), divisionLut(4),
      sigmoidTable(lut::make_sigmoid_table()),
      tanhTable(lut::make_tanh_table()),
      expTable(lut::make_exp_table())
{
    bce.setTier(tier);
    bce.loadMultLutImage();
}

// Symmetric per-tensor quantization lives in dnn::SymQuant /
// dnn::choose_sym, shared with the detailed cache driver so both paths
// quantize (and so dequantize) bit-identically. Weight-side quantization
// is frozen at plan compile (dnn::freeze_weights); only the
// input-dependent activation side is quantized here.
using dnn::SymQuant;
using dnn::choose_sym;
using dnn::TensorArena;

namespace {

/** Run the quantized m x k rows @p qa against a frozen n x k tile into
 *  @p accs: a plan's 4-bit tile through the packed kernel, any other
 *  through the int8 tile (with the plan's column features when the
 *  tile has them). */
void
run_frozen_tile(bce::Bce &bce, const std::int8_t *qa,
                const dnn::QuantizedWeights &wt, std::int32_t *accs,
                std::size_t m, std::size_t k, std::size_t n)
{
    if (wt.packed())
        bce.matmulTile(qa, wt.q4, accs, m, wt.features);
    else
        bce.matmulTile(qa, wt.q8.data(), accs, m, k, n, wt.bits,
                       wt.features.sums.empty() ? nullptr : &wt.features);
}

/** Arena bytes matmulFrozenInto() takes for an m x k by n x k tile. */
std::size_t
matmul_scratch_bytes(std::size_t m, std::size_t k, std::size_t n)
{
    return TensorArena::paddedBytes<std::int8_t>(m * k)
           + TensorArena::paddedBytes<std::int32_t>(m * n);
}

} // namespace

void
FunctionalExecutor::runConvInto(const PlannedLayer &pl, unsigned bits,
                                const float *in, float *out)
{
    const dnn::Layer &layer = pl.layer;
    const dnn::FeatureShape o = layer.outputShape();
    const dnn::QuantizedWeights &fw = pl.frozen[0];
    const SymQuant qi = choose_sym(in, pl.inElems, bits);

    bce.setMode(bce::BceMode::Conv);

    const std::size_t patch_len =
        std::size_t(layer.input.c) * layer.kernelH * layer.kernelW;
    const std::size_t inW = layer.input.w;
    const std::size_t inHW = std::size_t(layer.input.h) * inW;
    const std::size_t outHW = std::size_t(o.h) * o.w;

    if (bits <= 8) {
        // Quantize the plane once; padded layers stage the whole
        // zero-padded plane once more. After that the front half is
        // pure addressing: a per-layer run-offset table plus a uniform
        // base shift per output position, compacted one output ROW of
        // patches at a time. Every buffer the view touches carries
        // slackBytes so the compactor can use whole-word copies
        // (slack8). The arena was sized at plan compile for exactly
        // the allocations made here.
        constexpr std::size_t slack = bce::simd::SpanView::slackBytes;
        const dnn::ElisionLayout el = dnn::elision_layout(layer);
        std::int8_t *qin =
            arena_.alloc<std::int8_t>(pl.inElems + (el.staged ? 0 : slack));
        dnn::quantize_span(qi, in, pl.inElems, qin);
        std::int8_t *patch =
            arena_.alloc<std::int8_t>(std::size_t(o.w) * patch_len + slack);
        std::int32_t *offsets = arena_.alloc<std::int32_t>(el.nRuns);
        dnn::elided_offsets(layer, offsets);
        bce::simd::SpanView view;
        view.offsets = offsets;
        view.nRuns = el.nRuns;
        view.runLen = el.runLen;
        view.slack8 = true;
        const std::int8_t *viewPlane = qin;
        if (el.staged) {
            std::int8_t *staging =
                arena_.alloc<std::int8_t>(el.stagingBytes + slack);
            dnn::stage_plane_i8(layer, qin, staging);
            viewPlane = staging;
        }

        for (unsigned oh = 0; oh < o.h; ++oh) {
            view.base =
                viewPlane + std::size_t(oh) * layer.strideH * el.rowBytes;
            bce::simd::materialize_span_block(view, o.w, layer.strideW,
                                              patch, patch_len);
            for (unsigned ow = 0; ow < o.w; ++ow) {
                const std::int8_t *cur = patch + std::size_t(ow) * patch_len;
                for (unsigned k = 0; k < o.c; ++k) {
                    const std::int32_t acc = bce.dotProductSpan(
                        fw.q8.data() + std::size_t(k) * patch_len, cur,
                        patch_len, bits);
                    out[std::size_t(k) * outHW + std::size_t(oh) * o.w
                        + ow] =
                        static_cast<float>(acc * fw.scale.scale
                                           * qi.scale)
                        + pl.bias[k];
                }
            }
        }
        return;
    }

    // 16-bit operands exceed the int8 patch element; run scalar
    // multiplies over an int32 patch with the same reuse structure.
    std::int32_t *patch = arena_.alloc<std::int32_t>(patch_len);
    for (unsigned oh = 0; oh < o.h; ++oh) {
        for (unsigned ow = 0; ow < o.w; ++ow) {
            std::size_t p = 0;
            for (unsigned c = 0; c < layer.input.c; ++c) {
                for (unsigned r = 0; r < layer.kernelH; ++r) {
                    for (unsigned s = 0; s < layer.kernelW; ++s, ++p) {
                        const int ih = static_cast<int>(
                                           oh * layer.strideH + r)
                                       - static_cast<int>(layer.padH);
                        const int iw = static_cast<int>(
                                           ow * layer.strideW + s)
                                       - static_cast<int>(layer.padW);
                        const bool inside =
                            ih >= 0 && iw >= 0
                            && ih < static_cast<int>(layer.input.h)
                            && iw < static_cast<int>(layer.input.w);
                        patch[p] =
                            inside ? qi.q(in[c * inHW + ih * inW + iw])
                                   : 0;
                    }
                }
            }
            for (unsigned k = 0; k < o.c; ++k) {
                std::int64_t acc = 0;
                const std::size_t base = std::size_t(k) * patch_len;
                for (std::size_t q = 0; q < patch_len; ++q)
                    acc += bce.multiply(fw.q32[base + q], patch[q],
                                        bits);
                out[std::size_t(k) * outHW + std::size_t(oh) * o.w + ow] =
                    static_cast<float>(acc * fw.scale.scale * qi.scale)
                    + pl.bias[k];
            }
        }
    }
}

void
FunctionalExecutor::runFcInto(const PlannedLayer &pl, unsigned bits,
                              const float *in, float *out, std::size_t m,
                              std::size_t stride)
{
    const dnn::Layer &layer = pl.layer;
    const dnn::QuantizedWeights &fw = pl.frozen[0];
    const std::size_t k = layer.inFeatures;
    const std::size_t n = layer.outFeatures;

    // FC layers run on the matmul-mode broadcast datapath.
    bce.setMode(bce::BceMode::Matmul);
    if (bits <= 8) {
        // The frozen [outFeatures][inFeatures] matrix already is the
        // transposed-B tile matmulTile wants, so all m rows, each
        // quantized at its own scale, are one blocked GEMM over the LUT
        // datapath: the weights are read once for the whole walk, and
        // the tally is folded against the column features summed at
        // plan compile (one m-row tile books what m one-row tiles do).
        rowScale_.resize(std::max(rowScale_.size(), m));
        std::int8_t *qin = arena_.alloc<std::int8_t>(m * k);
        for (std::size_t r = 0; r < m; ++r) {
            const SymQuant qi = choose_sym(in + r * stride, k, bits);
            rowScale_[r] = qi.scale;
            dnn::quantize_span(qi, in + r * stride, k, qin + r * k);
        }
        std::int32_t *accs = arena_.alloc<std::int32_t>(m * n);
        std::fill(accs, accs + m * n, 0);
        run_frozen_tile(bce, qin, fw, accs, m, k, n);
        for (std::size_t r = 0; r < m; ++r)
            for (std::size_t o = 0; o < n; ++o)
                out[r * stride + o] =
                    static_cast<float>(accs[r * n + o] * fw.scale.scale
                                       * rowScale_[r])
                    + pl.bias[o];
        return;
    }

    // 16-bit values historically truncate into the int8 scratch (the
    // broadcast path consumes them lane-wise), and 16-bit weights
    // exceed the int8 span: broadcast them one at a time, row by row.
    std::int8_t *qin = arena_.alloc<std::int8_t>(k);
    for (std::size_t r = 0; r < m; ++r) {
        const float *row = in + r * stride;
        const SymQuant qi = choose_sym(row, k, bits);
        for (std::size_t i = 0; i < k; ++i)
            qin[i] = static_cast<std::int8_t>(qi.q(row[i]));
        for (std::size_t o = 0; o < n; ++o) {
            std::int64_t acc = 0;
            const std::size_t base = o * k;
            for (std::size_t i = 0; i < k; i += 8) {
                const std::size_t len = std::min<std::size_t>(8, k - i);
                std::int32_t lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
                // Broadcast each weight against up to 8 input lanes.
                for (std::size_t j = 0; j < len; ++j) {
                    const std::int32_t wq = fw.q32[base + i + j];
                    std::int32_t lane = 0;
                    bce.broadcastMac(wq, &qin[i + j], 1, &lane, bits);
                    lanes[j] = lane;
                }
                for (std::size_t j = 0; j < len; ++j)
                    acc += lanes[j];
            }
            out[r * stride + o] =
                static_cast<float>(acc * fw.scale.scale * qi.scale)
                + pl.bias[o];
        }
    }
}

void
FunctionalExecutor::runActivationInto(const PlannedLayer &pl,
                                      const float *in, float *out)
{
    if (pl.layer.kind == dnn::LayerKind::Relu) {
        for (std::size_t i = 0; i < pl.inElems; ++i) {
            const std::int32_t vals[2] = {
                0, static_cast<std::int32_t>(std::lround(in[i] * 256.0f))};
            out[i] = static_cast<float>(bce.maxReduce(vals, 2)) / 256.0f;
        }
        return;
    }
    if (pl.layer.kind != dnn::LayerKind::Sigmoid
        && pl.layer.kind != dnn::LayerKind::Tanh)
        bfree_panic("unsupported activation in functional path");
    const lut::PwlTable &table = pl.layer.kind == dnn::LayerKind::Sigmoid
                                     ? sigmoidTable
                                     : tanhTable;
    // One PWL span per chunk of widened inputs.
    constexpr std::size_t chunk = 256;
    double buf[chunk];
    for (std::size_t i0 = 0; i0 < pl.inElems; i0 += chunk) {
        const std::size_t len = std::min(chunk, pl.inElems - i0);
        std::copy(in + i0, in + i0 + len, buf);
        bce.evaluatePwlSpan(table, buf, len, buf);
        for (std::size_t t = 0; t < len; ++t)
            out[i0 + t] = static_cast<float>(buf[t]);
    }
}

void
FunctionalExecutor::runPoolInto(const PlannedLayer &pl, const float *in,
                                float *out)
{
    const dnn::Layer &layer = pl.layer;
    const dnn::FeatureShape o = layer.outputShape();
    const std::size_t inW = layer.input.w;
    const std::size_t inHW = std::size_t(layer.input.h) * inW;
    const std::size_t outHW = std::size_t(o.h) * o.w;
    std::int32_t *window = arena_.alloc<std::int32_t>(
        std::size_t(layer.kernelH) * layer.kernelW);
    for (unsigned c = 0; c < o.c; ++c) {
        for (unsigned oh = 0; oh < o.h; ++oh) {
            for (unsigned ow = 0; ow < o.w; ++ow) {
                std::size_t wn = 0;
                for (unsigned r = 0; r < layer.kernelH; ++r) {
                    for (unsigned s = 0; s < layer.kernelW; ++s) {
                        const int ih =
                            static_cast<int>(oh * layer.strideH + r)
                            - static_cast<int>(layer.padH);
                        const int iw =
                            static_cast<int>(ow * layer.strideW + s)
                            - static_cast<int>(layer.padW);
                        if (ih < 0 || iw < 0
                            || ih >= static_cast<int>(layer.input.h)
                            || iw >= static_cast<int>(layer.input.w))
                            continue;
                        window[wn++] = static_cast<std::int32_t>(
                            std::lround(in[c * inHW + ih * inW + iw]
                                        * 256.0f));
                    }
                }
                float &slot = out[std::size_t(c) * outHW
                                  + std::size_t(oh) * o.w + ow];
                if (layer.kind == dnn::LayerKind::MaxPool) {
                    slot = static_cast<float>(bce.maxReduce(window, wn))
                           / 256.0f;
                } else {
                    // Average pooling: accumulate + LUT division.
                    slot = static_cast<float>(
                               bce.avgPool(window, wn, divisionLut))
                           / 256.0f;
                }
            }
        }
    }
}

void
FunctionalExecutor::runSoftmaxInto(const PlannedLayer &pl,
                                   const float *in, float *out)
{
    const std::size_t n = pl.inElems;
    double *logits = arena_.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        logits[i] = in[i];
    lut::MicroOpCounts counts;
    lut::lut_softmax_into(logits, n, logits, expTable, divisionLut,
                          &counts);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(logits[i]);
}

void
FunctionalExecutor::runRowInto(const PlannedLayer &pl, unsigned bits,
                               const float *in, float *out)
{
    switch (pl.layer.kind) {
      case dnn::LayerKind::Conv:
        runConvInto(pl, bits, in, out);
        break;
      case dnn::LayerKind::Relu:
      case dnn::LayerKind::Sigmoid:
      case dnn::LayerKind::Tanh:
        runActivationInto(pl, in, out);
        break;
      case dnn::LayerKind::MaxPool:
      case dnn::LayerKind::AvgPool:
        runPoolInto(pl, in, out);
        break;
      case dnn::LayerKind::Softmax:
        runSoftmaxInto(pl, in, out);
        break;
      default:
        bfree_fatal("functional path does not execute layer kind '",
                    dnn::layer_kind_name(pl.layer.kind), "'");
    }
}

void
FunctionalExecutor::walkInto(const NetworkPlan &plan,
                             const float *const *inputs,
                             float *const *outputs, std::size_t m)
{
    arena_.reserve(plan.arenaBytes(m));
    arena_.reset();
    // Restart the high-water mark so highWater() reports the peak of
    // the plan actually run — a smaller plan run after a larger one
    // must show the shrink instead of the old plan's ghost.
    arena_.resetHighWater();
    const std::size_t stride = plan.stats().maxActivationElems;
    float *cur = arena_.alloc<float>(m * stride);
    float *next = arena_.alloc<float>(m * stride);
    for (std::size_t r = 0; r < m; ++r)
        std::copy(inputs[r], inputs[r] + plan.inputElems(),
                  cur + r * stride);

    const unsigned bits = plan.bits();
    for (const PlannedLayer &pl : plan.layers()) {
        const dnn::TensorArena::Marker marker = arena_.mark();
        if (pl.layer.kind == dnn::LayerKind::Fc) {
            runFcInto(pl, bits, cur, next, m, stride);
        } else {
            for (std::size_t r = 0; r < m; ++r) {
                runRowInto(pl, bits, cur + r * stride, next + r * stride);
                arena_.release(marker);
            }
        }
        arena_.release(marker);
        std::swap(cur, next);
    }

    for (std::size_t r = 0; r < m; ++r) {
        std::copy(cur + r * stride, cur + r * stride + plan.outputElems(),
                  outputs[r]);
        plan.noteRun();
    }
}

void
FunctionalExecutor::runInto(const NetworkPlan &plan, const float *input,
                            std::size_t inElems, float *output,
                            std::size_t outElems)
{
    if (inElems != plan.inputElems())
        bfree_fatal("plan run: input of ", inElems, " elements, plan "
                    "expects ", plan.inputElems());
    if (outElems != plan.outputElems())
        bfree_fatal("plan run: output of ", outElems, " elements, plan "
                    "produces ", plan.outputElems());
    walkInto(plan, &input, &output, 1);
}

void
FunctionalExecutor::runBatchInto(const NetworkPlan &plan,
                                 const float *const *inputs,
                                 float *const *outputs, std::size_t m)
{
    if (bce.mode() != bce::BceMode::Conv)
        bfree_panic("runBatchInto needs a parked datapath");
    if (m == 0)
        return;
    const std::array<std::uint64_t, 3> before = bce.modeSwitches();
    walkInto(plan, inputs, outputs, m);
    parkDatapath();
    // From the parked state every input walks the same modes, so the
    // switches this walk took are one input's; m sequential walks would
    // have taken them m times.
    const std::array<std::uint64_t, 3> after = bce.modeSwitches();
    for (std::size_t i = 0; i < after.size(); ++i)
        bce.chargeModeSwitches(static_cast<bce::BceMode>(i),
                               (m - 1) * (after[i] - before[i]));
}

FunctionalResult
FunctionalExecutor::run(const NetworkPlan &plan,
                        const dnn::FloatTensor &input)
{
    dnn::FloatTensor out(plan.outputShape());
    runInto(plan, input.data(), input.size(), out.data(), out.size());
    return FunctionalResult{std::move(out), bce.stats()};
}

FunctionalResult
FunctionalExecutor::run(const dnn::Network &net,
                        const dnn::FloatTensor &input,
                        const NetworkWeights &weights, unsigned bits)
{
    return run(NetworkPlan::compile(net, weights, bits), input);
}

void
FunctionalExecutor::matmulFrozenInto(const float *a, std::size_t m,
                                     const dnn::QuantizedWeights &wt,
                                     std::size_t k, std::size_t n,
                                     float *out)
{
    const unsigned bits = wt.bits;
    const SymQuant qa = choose_sym(a, m * k, bits);
    bce.setMode(bce::BceMode::Matmul);

    if (bits <= 8) {
        // Quantize A row-major (per call — it is the activation side);
        // the B^T tile is already frozen. One blocked GEMM tile.
        std::int8_t *qrows = arena_.alloc<std::int8_t>(m * k);
        dnn::quantize_span(qa, a, m * k, qrows);
        std::int32_t *accs = arena_.alloc<std::int32_t>(m * n);
        std::fill(accs, accs + m * n, 0);
        run_frozen_tile(bce, qrows, wt, accs, m, k, n);
        for (std::size_t i = 0; i < m * n; ++i)
            out[i] = static_cast<float>(accs[i] * qa.scale * wt.scale.scale);
        return;
    }

    std::int8_t *qrow = arena_.alloc<std::int8_t>(k);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p)
            qrow[p] = static_cast<std::int8_t>(qa.q(a[i * k + p]));
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::size_t p = 0; p < k; ++p) {
                const std::int32_t wq = wt.q32[j * k + p];
                std::int32_t lane = 0;
                bce.broadcastMac(wq, &qrow[p], 1, &lane, bits);
                acc += lane;
            }
            out[i * n + j] =
                static_cast<float>(acc * qa.scale * wt.scale.scale);
        }
    }
}

dnn::FloatTensor
FunctionalExecutor::qMatmulFrozen(const dnn::FloatTensor &a,
                                  const dnn::QuantizedWeights &wt,
                                  std::size_t k, std::size_t n)
{
    if (a.rank() != 2 || a.dim(1) != k)
        bfree_panic("qMatmul: a must be [m][k]");
    if (wt.count() != k * n)
        bfree_panic("qMatmulFrozen: expected an n x k tile of ", k * n,
                    " values, got ", wt.count());
    const std::size_t m = a.dim(0);
    arena_.reserve(matmul_scratch_bytes(m, k, n));
    arena_.reset();
    dnn::FloatTensor out({m, n});
    matmulFrozenInto(a.data(), m, wt, k, n, out.data());
    return out;
}

dnn::FloatTensor
FunctionalExecutor::qMatmul(const dnn::FloatTensor &a, const float *w,
                            std::size_t k, std::size_t n, unsigned bits)
{
    return qMatmulFrozen(a, dnn::freeze_weights_transposed(w, k, n, bits),
                         k, n);
}

dnn::LstmState
FunctionalExecutor::lstmStepImpl(const dnn::Layer &layer,
                                 const std::vector<float> &x,
                                 const dnn::LstmState &prev,
                                 const dnn::QuantizedWeights &gatesW,
                                 const std::vector<float> &bias)
{
    const unsigned in = layer.lstmInput;
    const unsigned hid = layer.lstmHidden;
    const std::size_t cols = std::size_t(in) + hid;
    const std::size_t gates = std::size_t(4) * hid;
    if (x.size() != in || prev.h.size() != hid)
        bfree_fatal("runLstmStep: state size mismatch");
    if (gatesW.count() != cols * gates)
        bfree_panic("qMatmulFrozen: expected an n x k tile of ",
                    cols * gates, " values, got ", gatesW.count());

    // Every intermediate lives in the arena; only the returned state
    // allocates.
    arena_.reserve(TensorArena::paddedBytes<float>(cols)
                   + TensorArena::paddedBytes<float>(gates)
                   + matmul_scratch_bytes(1, cols, gates)
                   + TensorArena::paddedBytes<double>(gates + hid));
    arena_.reset();

    // Concatenate [x, h] into one row vector and run the packed gate
    // matvec on the broadcast datapath: [1][cols] x [cols][4*hid]. The
    // frozen row-major [4*hid][cols] gate matrix is exactly the
    // transposed tile that product wants.
    float *xh = arena_.alloc<float>(cols);
    std::copy(x.begin(), x.end(), xh);
    std::copy(prev.h.begin(), prev.h.end(), xh + in);
    float *g = arena_.alloc<float>(gates);
    matmulFrozenInto(xh, 1, gatesW, cols, gates, g);

    // Pre-activations [i | f | g | o], then one PWL span per gate; the
    // last hid slots take c_new and then tanh(c_new).
    double *pre = arena_.alloc<double>(gates + hid);
    for (std::size_t j = 0; j < gates; ++j)
        pre[j] = g[j] + bias[j];
    double *const i_g = pre, *const f_g = pre + hid,
                  *const g_g = pre + 2 * hid, *const o_g = pre + 3 * hid,
                  *const c_new = pre + 4 * hid;
    bce.evaluatePwlSpan(sigmoidTable, i_g, hid, i_g);
    bce.evaluatePwlSpan(sigmoidTable, f_g, hid, f_g);
    bce.evaluatePwlSpan(tanhTable, g_g, hid, g_g);
    bce.evaluatePwlSpan(sigmoidTable, o_g, hid, o_g);

    dnn::LstmState next;
    next.h.resize(hid);
    next.c.resize(hid);
    for (unsigned j = 0; j < hid; ++j) {
        c_new[j] = f_g[j] * prev.c[j] + i_g[j] * g_g[j];
        next.c[j] = static_cast<float>(c_new[j]);
    }
    bce.evaluatePwlSpan(tanhTable, c_new, hid, c_new);
    for (unsigned j = 0; j < hid; ++j)
        next.h[j] = static_cast<float>(o_g[j] * c_new[j]);
    return next;
}

dnn::LstmState
FunctionalExecutor::runLstmStep(const NetworkPlan &plan,
                                std::size_t layerIndex,
                                const std::vector<float> &x,
                                const dnn::LstmState &prev)
{
    if (layerIndex >= plan.layers().size())
        bfree_fatal("runLstmStep: layer index ", layerIndex,
                    " out of range");
    const PlannedLayer &pl = plan.layers()[layerIndex];
    if (pl.layer.kind != dnn::LayerKind::LstmCell)
        bfree_fatal("runLstmStep: layer '", pl.layer.name,
                    "' is not an LSTM cell");
    plan.noteRun();
    return lstmStepImpl(pl.layer, x, prev, pl.frozen[0], pl.bias);
}

dnn::LstmState
FunctionalExecutor::runLstmStep(const dnn::Layer &layer,
                                const std::vector<float> &x,
                                const dnn::LstmState &prev,
                                const LayerWeights &w, unsigned bits)
{
    const unsigned cols = layer.lstmInput + layer.lstmHidden;
    if (w.weights.size() != std::size_t(4) * layer.lstmHidden * cols
        || w.bias.size() != std::size_t(4) * layer.lstmHidden)
        bfree_fatal("runLstmStep: weight size mismatch");
    return lstmStepImpl(layer, x, prev,
                        dnn::freeze_weights(w.weights.data(),
                                            w.weights.size(), bits),
                        w.bias);
}

dnn::FloatTensor
FunctionalExecutor::attentionImpl(const dnn::Layer &layer,
                                  const dnn::FloatTensor &input,
                                  const dnn::QuantizedWeights *proj)
{
    const unsigned s = layer.seqLen;
    const unsigned d = layer.dModel;
    if (input.rank() != 2 || input.dim(0) != s || input.dim(1) != d)
        bfree_fatal("runAttention: input must be [seq][d]");

    const dnn::FloatTensor q = qMatmulFrozen(input, proj[0], d, d);
    const dnn::FloatTensor k = qMatmulFrozen(input, proj[1], d, d);
    const dnn::FloatTensor v = qMatmulFrozen(input, proj[2], d, d);

    // Scores: Q x K^T, scaled; softmax per row through the LUT path.
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    dnn::FloatTensor context({s, d});
    std::vector<double> row(s);
    for (unsigned i = 0; i < s; ++i) {
        // K^T as a [d][s] weight block for the broadcast datapath.
        for (unsigned j = 0; j < s; ++j) {
            float acc = 0.0f;
            for (unsigned p = 0; p < d; ++p)
                acc += q.at(i, p) * k.at(j, p);
            row[j] = acc * scale;
        }
        lut::MicroOpCounts counts;
        const std::vector<double> probs =
            lut::lut_softmax(row, expTable, divisionLut, &counts);
        for (unsigned p = 0; p < d; ++p) {
            double acc = 0.0;
            for (unsigned j = 0; j < s; ++j)
                acc += probs[j] * v.at(j, p);
            context.at(i, p) = static_cast<float>(acc);
        }
    }
    return qMatmulFrozen(context, proj[3], d, d);
}

dnn::FloatTensor
FunctionalExecutor::runAttention(const NetworkPlan &plan,
                                 std::size_t layerIndex,
                                 const dnn::FloatTensor &input)
{
    if (layerIndex >= plan.layers().size())
        bfree_fatal("runAttention: layer index ", layerIndex,
                    " out of range");
    const PlannedLayer &pl = plan.layers()[layerIndex];
    if (pl.layer.kind != dnn::LayerKind::Attention)
        bfree_fatal("runAttention: layer '", pl.layer.name,
                    "' is not an attention block");
    plan.noteRun();
    return attentionImpl(pl.layer, input, pl.frozen.data());
}

dnn::FloatTensor
FunctionalExecutor::runAttention(const dnn::Layer &layer,
                                 const dnn::FloatTensor &input,
                                 const LayerWeights &w, unsigned bits)
{
    const std::size_t dd = std::size_t(layer.dModel) * layer.dModel;
    if (w.weights.size() != 4 * dd)
        bfree_fatal("runAttention: weights must pack wq|wk|wv|wo");
    dnn::QuantizedWeights proj[4];
    for (unsigned b = 0; b < 4; ++b)
        proj[b] = dnn::freeze_weights_transposed(
            w.weights.data() + b * dd, layer.dModel, layer.dModel, bits);
    return attentionImpl(layer, input, proj);
}

BatchResult
run_functional_batch(const NetworkPlan &plan,
                     const std::vector<dnn::FloatTensor> &inputs,
                     const BatchOptions &opts)
{
    std::vector<const dnn::FloatTensor *> borrowed;
    borrowed.reserve(inputs.size());
    for (const dnn::FloatTensor &in : inputs)
        borrowed.push_back(&in);
    return run_functional_batch(plan, borrowed, opts);
}

BatchWorkers::BatchWorkers(const BatchOptions &opts)
    : opts_(opts), pool_(opts.threads)
{}

BatchResult
BatchWorkers::run(const NetworkPlan &plan,
                  const std::vector<const dnn::FloatTensor *> &inputs)
{
    BatchResult result;
    const std::size_t n = inputs.size();
    result.outputs.reserve(n);
    std::vector<const float *> in(n);
    std::vector<float *> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const dnn::FloatTensor *t = inputs[i];
        if (t == nullptr)
            bfree_fatal("null input tensor in batch dispatch");
        if (t->size() != plan.inputElems())
            bfree_fatal("batch input of ", t->size(), " elements, plan "
                        "expects ", plan.inputElems());
        // The executor quantizes these user buffers straight into
        // 64-byte-aligned arena spans; the float loads themselves only
        // need natural alignment, but a buffer that misses even that
        // points at a caller-side lifetime or aliasing bug — refuse it
        // here with a usable message rather than faulting in a kernel.
        if (reinterpret_cast<std::uintptr_t>(t->data()) % alignof(float)
            != 0)
            bfree_fatal("batch input tensor data at ",
                        static_cast<const void *>(t->data()),
                        " is not aligned for float access; pass "
                        "naturally-aligned buffers to "
                        "run_functional_batch");
        in[i] = t->data();
        out[i] = result.outputs.emplace_back(plan.outputShape()).data();
    }
    if (n == 0)
        return result;

    const std::size_t chunks = std::min<std::size_t>(pool_.threads(), n);
    const std::size_t per = (n + chunks - 1) / chunks;
    if (execs_.size() < chunks)
        execs_.resize(chunks);

    // Contiguous chunks, one warm executor each. A chunk's BCE activity
    // is captured as a snapshot delta into its own slot, then reduced
    // in chunk order below — integer sums, so the totals equal the
    // per-input sums of a sequential loop and cannot depend on
    // scheduling or on what earlier batches ran.
    std::vector<bce::BceStats> perChunk(chunks);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * per;
        const std::size_t end = std::min(n, begin + per);
        if (begin >= end)
            break;
        tasks.push_back([this, &plan, &in, &out, &perChunk, c, begin,
                         end] {
            std::unique_ptr<FunctionalExecutor> &exec = execs_[c];
            if (!exec)
                exec = std::make_unique<FunctionalExecutor>(
                    opts_.geom, opts_.tech, opts_.tier);
            const bce::BceStats before = exec->stats();
            exec->runBatchInto(plan, in.data() + begin, out.data() + begin,
                               end - begin);
            perChunk[c] = exec->stats() - before;
        });
    }
    pool_.run(std::move(tasks));

    for (const bce::BceStats &s : perChunk)
        result.stats += s;

    // One bulk energy conversion from the summed integer tallies — the
    // same closed-form deposit Bce::flushEnergy performs, so the batch
    // energy equals a sequential run's datapath energy exactly. The
    // per-worker LUT-image load is deliberately excluded (fixed
    // per-executor setup, not batch work).
    mem::BceEnergyTallies tallies;
    tallies.romLookups = result.stats.counts.romLookups;
    tallies.lutReadsPim = result.stats.lutReadsPim;
    tallies.lutReadsCache = result.stats.lutReadsCache;
    tallies.specialLutEvents = result.stats.specialLutEvents;
    tallies.cyclesByMode = result.stats.cyclesByMode;
    mem::MicroOpEnergyModel(opts_.tech).deposit(tallies, result.energy);
    return result;
}

BatchResult
run_functional_batch(const NetworkPlan &plan,
                     const std::vector<const dnn::FloatTensor *> &inputs,
                     const BatchOptions &opts)
{
    return BatchWorkers(opts).run(plan, inputs);
}

} // namespace bfree::core
