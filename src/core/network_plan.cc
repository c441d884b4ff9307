#include "network_plan.hh"

#include <algorithm>
#include <sstream>
#include <string>

#include "bce/simd_kernels.hh"
#include "dnn/im2col.hh"
#include "sim/logging.hh"
#include "verify/plan_verifier.hh"

namespace bfree::core {

NetworkWeights
random_weights(const dnn::Network &net, sim::Rng &rng, double scale)
{
    NetworkWeights all;
    all.reserve(net.layers().size());
    for (const dnn::Layer &l : net.layers()) {
        LayerWeights w;
        std::size_t count = 0;
        std::size_t biases = 0;
        switch (l.kind) {
          case dnn::LayerKind::Conv:
            count = std::size_t(l.outChannels) * l.input.c * l.kernelH
                    * l.kernelW;
            biases = l.outChannels;
            break;
          case dnn::LayerKind::Fc:
            count = std::size_t(l.inFeatures) * l.outFeatures;
            biases = l.outFeatures;
            break;
          case dnn::LayerKind::LstmCell:
            count = std::size_t(4) * (l.lstmInput + l.lstmHidden)
                    * l.lstmHidden;
            biases = std::size_t(4) * l.lstmHidden;
            break;
          case dnn::LayerKind::Attention:
            count = std::size_t(4) * l.dModel * l.dModel;
            biases = 0;
            break;
          default:
            break;
        }
        w.weights.resize(count);
        w.bias.resize(biases);
        for (float &v : w.weights)
            v = static_cast<float>(rng.uniformReal(-scale, scale));
        for (float &v : w.bias)
            v = static_cast<float>(rng.uniformReal(-scale, scale) * 0.1);
        all.push_back(std::move(w));
    }
    return all;
}

namespace {

using dnn::TensorArena;

/** Report a planning failure: fatal by default, or recorded in @p err
 *  (returning false) when the caller asked for a non-fatal probe. */
template <typename... Args>
bool
plan_fail(std::string *err, Args &&...args)
{
    if (err) {
        std::ostringstream os;
        (os << ... << args);
        *err = os.str();
        return false;
    }
    bfree_fatal(args...);
    return false;
}

/**
 * Arena bytes runFcInto allocates for @p rows rows: at <= 8 bits the
 * quantized rows and the int32 accumulators of one rows-row tile,
 * above that one quantized row reused by every row.
 */
std::size_t
fc_scratch_bytes(const dnn::Layer &layer, unsigned bits, std::size_t rows)
{
    if (bits > 8)
        return TensorArena::paddedBytes<std::int8_t>(layer.inFeatures);
    return TensorArena::paddedBytes<std::int8_t>(rows * layer.inFeatures)
           + TensorArena::paddedBytes<std::int32_t>(rows
                                                    * layer.outFeatures);
}

/**
 * The dry planning pass: walk the layers tracking activation shape and
 * element counts, and record each layer's scratch requirement through
 * the exact same TensorArena::paddedBytes the runtime allocates with.
 * Fills layer/in/out/scratch fields of @p out (weights untouched) and
 * the whole-plan sizing in @p ps. Returns false (diagnostics in
 * @p err) when the network cannot be planned; with @p err null a
 * planning failure is fatal.
 */
bool
plan_shapes(const dnn::Network &net, unsigned bits,
            std::vector<PlannedLayer> &out, std::size_t &inElems,
            std::size_t &outElems, std::vector<std::size_t> &outShape,
            PlanStats &ps, std::string *err = nullptr)
{
    ps = PlanStats{};

    std::vector<std::size_t> shape = {net.input().c, net.input().h,
                                      net.input().w};
    std::size_t elems = net.input().elements();
    inElems = elems;
    ps.maxActivationElems = elems;

    out.clear();
    out.reserve(net.layers().size());
    for (const dnn::Layer &layer : net.layers()) {
        PlannedLayer pl;
        pl.layer = layer;
        pl.inElems = elems;

        switch (layer.kind) {
          case dnn::LayerKind::Conv: {
            if (elems != layer.input.elements())
                return plan_fail(err, "plan: conv '", layer.name,
                                 "' expects ", layer.input.elements(),
                                 " input elements, got ", elems);
            const dnn::FeatureShape o = layer.outputShape();
            const std::size_t patch_len = std::size_t(layer.input.c)
                                          * layer.kernelH * layer.kernelW;
            if (bits > 8) {
                // Wide precision: scalar multiplies over an int32
                // patch; no int8 front end exists to elide.
                pl.scratchBytes =
                    TensorArena::paddedBytes<std::int32_t>(patch_len);
                shape = {o.c, o.h, o.w};
                elems = o.elements();
                break;
            }
            // The front end's exact arena demand, through the same
            // expressions runConvInto allocates with: the quantized
            // plane, a whole output ROW of patches, the per-layer
            // run-offset table and, for padded layers, the staged
            // zero-padded plane. Buffers the view compactor touches
            // carry its whole-word copy slack.
            constexpr std::size_t slack = bce::simd::SpanView::slackBytes;
            const dnn::ElisionLayout el = dnn::elision_layout(layer);
            pl.scratchBytes =
                TensorArena::paddedBytes<std::int8_t>(
                    layer.input.elements() + (el.staged ? 0 : slack))
                + TensorArena::paddedBytes<std::int8_t>(
                      std::size_t(o.w) * patch_len + slack)
                + TensorArena::paddedBytes<std::int32_t>(el.nRuns)
                + (el.staged ? TensorArena::paddedBytes<std::int8_t>(
                                   el.stagingBytes + slack)
                             : 0);
            shape = {o.c, o.h, o.w};
            elems = o.elements();
            break;
          }
          case dnn::LayerKind::Fc: {
            if (elems != layer.inFeatures)
                return plan_fail(err, "plan: fc '", layer.name,
                                 "': flattened input of ", elems,
                                 " != ", layer.inFeatures);
            pl.scratchBytes = fc_scratch_bytes(layer, bits, 1);
            shape = {layer.outFeatures, std::size_t(1), std::size_t(1)};
            elems = layer.outFeatures;
            break;
          }
          case dnn::LayerKind::Relu:
          case dnn::LayerKind::Sigmoid:
          case dnn::LayerKind::Tanh:
            // Element-wise: no scratch, shape preserved.
            break;
          case dnn::LayerKind::MaxPool:
          case dnn::LayerKind::AvgPool: {
            if (elems != layer.input.elements())
                return plan_fail(err, "plan: pool '", layer.name,
                                 "' expects ", layer.input.elements(),
                                 " input elements, got ", elems);
            const dnn::FeatureShape o = layer.outputShape();
            pl.scratchBytes = TensorArena::paddedBytes<std::int32_t>(
                std::size_t(layer.kernelH) * layer.kernelW);
            shape = {o.c, o.h, o.w};
            elems = o.elements();
            break;
          }
          case dnn::LayerKind::Softmax:
            pl.scratchBytes =
                TensorArena::paddedBytes<double>(elems);
            break;
          case dnn::LayerKind::LstmCell:
            // Standalone execution only (runLstmStep); the network
            // walk never runs it, so it claims no arena scratch.
            shape = {layer.lstmHidden, std::size_t(1), std::size_t(1)};
            elems = layer.lstmHidden;
            break;
          case dnn::LayerKind::Attention:
            shape = {layer.seqLen, layer.dModel};
            elems = std::size_t(layer.seqLen) * layer.dModel;
            break;
          default:
            return plan_fail(err, "plan does not cover layer kind '",
                             dnn::layer_kind_name(layer.kind), "'");
        }

        pl.outElems = elems;
        ps.maxActivationElems =
            std::max(ps.maxActivationElems, elems);
        ps.peakScratchBytes =
            std::max(ps.peakScratchBytes, pl.scratchBytes);
        out.push_back(std::move(pl));
    }

    outElems = elems;
    outShape = std::move(shape);
    ps.activationBytes =
        2 * TensorArena::paddedBytes<float>(ps.maxActivationElems);
    ps.arenaBytes = ps.activationBytes + ps.peakScratchBytes;
    return true;
}

} // namespace

std::size_t
NetworkPlan::arenaBytes(std::size_t rows) const
{
    // Every layer but FC runs its rows one at a time, rewinding its
    // scratch between them; FC holds all rows' scratch at once.
    std::size_t scratch = 0;
    for (const PlannedLayer &pl : layers_)
        scratch = std::max(scratch,
                           pl.layer.kind == dnn::LayerKind::Fc
                               ? fc_scratch_bytes(pl.layer, bits_, rows)
                               : pl.scratchBytes);
    return 2 * TensorArena::paddedBytes<float>(rows
                                               * stats_.maxActivationElems)
           + scratch;
}

PlanStats
NetworkPlan::estimate(const dnn::Network &net, unsigned bits)
{
    std::vector<PlannedLayer> layers;
    std::size_t in = 0, outn = 0;
    std::vector<std::size_t> shape;
    PlanStats ps;
    plan_shapes(net, bits, layers, in, outn, shape, ps);
    return ps;
}

bool
NetworkPlan::tryEstimate(const dnn::Network &net, unsigned bits,
                         PlanStats &out)
{
    std::vector<PlannedLayer> layers;
    std::size_t in = 0, outn = 0;
    std::vector<std::size_t> shape;
    std::string err;
    return plan_shapes(net, bits, layers, in, outn, shape, out, &err);
}

namespace {

/**
 * Freeze an n x k matmul tile (FC, LSTM gates, attention projections)
 * and sum its column features once, read-only afterwards and shared
 * by every executor that runs the plan (<= 8 bits; wider tiles run
 * the scalar datapath). A 4-bit tile is quantized one feature block
 * of rows at a time, each block's features summed and its rows
 * nibble-packed straight away, so the int8 tile never exists whole.
 */
dnn::QuantizedWeights
freeze_tile(const float *w, std::size_t n, std::size_t k, unsigned bits,
            bool transposed)
{
    if (bits != 4) {
        dnn::QuantizedWeights q =
            transposed ? dnn::freeze_weights_transposed(w, k, n, bits)
                       : dnn::freeze_weights(w, n * k, bits);
        if (q.narrow())
            bce::simd::column_features(q.q8.data(), n, k, q.features);
        return q;
    }

    dnn::QuantizedWeights q;
    q.scale = dnn::choose_sym(w, n * k, bits);
    q.bits = bits;
    lut::init_packed_tile(q.q4, n, k);
    constexpr std::size_t rows = lut::ColumnFeatures::block_rows;
    const std::size_t blockBytes = 4 * lut::ColumnFeatures::stride(k);
    q.features.rows = n;
    q.features.cols = k;
    q.features.sums.resize(q.features.blocks() * blockBytes);
    std::vector<std::int8_t> block(rows * k);
    lut::ColumnFeatures f;
    for (std::size_t r0 = 0; r0 < n; r0 += rows) {
        const std::size_t r1 = std::min(n, r0 + rows);
        dnn::quantize_tile_rows(q.scale, w, k, n, transposed, r0, r1,
                                block.data());
        bce::simd::column_features(block.data(), r1 - r0, k, f);
        std::copy(f.sums.begin(), f.sums.end(),
                  q.features.sums.begin()
                      + static_cast<std::ptrdiff_t>(r0 / rows * blockBytes));
        q.features.maxMagnitude =
            std::max(q.features.maxMagnitude, f.maxMagnitude);
        lut::pack_tile_rows(block.data(), r0, r1, q.q4);
    }
    return q;
}

} // namespace

NetworkPlan
NetworkPlan::compile(const dnn::Network &net,
                     const NetworkWeights &weights, unsigned bits,
                     bool verify)
{
    if (weights.size() != net.layers().size())
        bfree_fatal("plan compile: expected ", net.layers().size(),
                    " weight entries, got ", weights.size());

    NetworkPlan plan;
    plan.net_ = net;
    plan.bits_ = bits;
    plan_shapes(net, bits, plan.layers_, plan.inElems_, plan.outElems_,
                plan.outShape_, plan.stats_);

    for (std::size_t i = 0; i < plan.layers_.size(); ++i) {
        PlannedLayer &pl = plan.layers_[i];
        const dnn::Layer &layer = pl.layer;
        const LayerWeights &w = weights[i];

        switch (layer.kind) {
          case dnn::LayerKind::Conv: {
            const std::size_t patch_len = std::size_t(layer.input.c)
                                          * layer.kernelH * layer.kernelW;
            const std::size_t count =
                std::size_t(layer.outChannels) * patch_len;
            if (w.weights.size() != count)
                bfree_fatal("plan: conv '", layer.name, "' expects ",
                            count, " weights, got ", w.weights.size());
            if (w.bias.size() != layer.outChannels)
                bfree_fatal("plan: conv '", layer.name, "' expects ",
                            layer.outChannels, " biases");
            // Filter-bank order [outC][inC][kh][kw] already matches the
            // im2col patch walk — freeze in place.
            pl.frozen.push_back(
                dnn::freeze_weights(w.weights.data(), count, bits));
            break;
          }
          case dnn::LayerKind::Fc: {
            const std::size_t count =
                std::size_t(layer.inFeatures) * layer.outFeatures;
            if (w.weights.size() != count)
                bfree_fatal("plan: fc '", layer.name, "' expects ",
                            count, " weights, got ", w.weights.size());
            if (w.bias.size() != layer.outFeatures)
                bfree_fatal("plan: fc '", layer.name, "' expects ",
                            layer.outFeatures, " biases");
            // [outFeatures][inFeatures] storage IS the transposed-B
            // GEMM tile — freeze in place.
            pl.frozen.push_back(freeze_tile(w.weights.data(),
                                            layer.outFeatures,
                                            layer.inFeatures, bits, false));
            break;
          }
          case dnn::LayerKind::LstmCell: {
            const unsigned cols = layer.lstmInput + layer.lstmHidden;
            const std::size_t count =
                std::size_t(4) * layer.lstmHidden * cols;
            if (w.weights.size() != count)
                bfree_fatal("plan: lstm '", layer.name, "' expects ",
                            count, " weights, got ", w.weights.size());
            if (w.bias.size() != std::size_t(4) * layer.lstmHidden)
                bfree_fatal("plan: lstm '", layer.name, "' expects ",
                            std::size_t(4) * layer.lstmHidden, " biases");
            // The row-major [4*hid][cols] gate matrix is already the
            // transposed tile of the [cols][4*hid] gate matmul: the
            // legacy path transposed it and the GEMM transposed it
            // back. Freeze in place, no transpose.
            pl.frozen.push_back(
                freeze_tile(w.weights.data(),
                            std::size_t(4) * layer.lstmHidden, cols, bits,
                            false));
            break;
          }
          case dnn::LayerKind::Attention: {
            const std::size_t dd =
                std::size_t(layer.dModel) * layer.dModel;
            if (w.weights.size() != 4 * dd)
                bfree_fatal("plan: attention '", layer.name,
                            "' weights must pack wq|wk|wv|wo");
            // Four independent d x d projections, each with its own
            // scale (matching the legacy per-projection qMatmul), each
            // frozen into the transposed tile.
            for (unsigned b = 0; b < 4; ++b)
                pl.frozen.push_back(freeze_tile(w.weights.data() + b * dd,
                                                layer.dModel, layer.dModel,
                                                bits, true));
            break;
          }
          default:
            if (!w.weights.empty() || !w.bias.empty())
                bfree_fatal("plan: layer '", layer.name,
                            "' takes no weights");
            break;
        }

        pl.bias = w.bias;
        for (const dnn::QuantizedWeights &f : pl.frozen) {
            plan.stats_.frozenWeightBytes += f.frozenBytes();
            plan.stats_.frozenValues += f.count();
        }
    }

    // Verify-on-compile, mirroring KernelCompiler: the whole-plan
    // auditor records its findings instead of aborting; serving
    // rejects a plan whose report is not ok().
    if (verify) {
        const verify::PlanVerifier verifier{tech::CacheGeometry{}};
        plan.diagnostics_ = verifier.verify(plan);
    }
    return plan;
}

} // namespace bfree::core
