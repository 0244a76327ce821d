#include "quant/methods.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "quant/quant_executor.hpp"

namespace raq::quant {

namespace {

// ------------------------------------------------------------ utilities

/// Golden-section minimization of a unimodal 1-D function on [lo, hi].
template <typename F>
double golden_min(F f, double lo, double hi, int iters) {
    constexpr double kInvPhi = 0.6180339887498949;
    double a = lo, b = hi;
    double x1 = b - kInvPhi * (b - a);
    double x2 = a + kInvPhi * (b - a);
    double f1 = f(x1), f2 = f(x2);
    for (int i = 0; i < iters; ++i) {
        if (f1 < f2) {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - kInvPhi * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + kInvPhi * (b - a);
            f2 = f(x2);
        }
    }
    return 0.5 * (a + b);
}

struct WeightRow {
    const float* data;
    std::size_t n;
};

/// Quantize one conv op's weights given per-channel (or single) params.
void quantize_weights(const ir::Op& op, const std::vector<QuantParams>& wq, QConv& out) {
    out.weight_q = wq;
    out.qweights.resize(op.weights.size());
    const std::size_t kdim = op.weights.size() / static_cast<std::size_t>(op.conv.out_c);
    for (int oc = 0; oc < op.conv.out_c; ++oc) {
        const QuantParams& q = out.wq(oc);
        for (std::size_t k = 0; k < kdim; ++k) {
            const std::size_t idx = static_cast<std::size_t>(oc) * kdim + k;
            out.qweights[idx] = static_cast<std::uint8_t>(q.quantize(op.weights[idx]));
        }
    }
}

/// Quantize the (possibly corrected) float bias into 16−α−β-bit words.
/// The word lives in the accumulator scale (act_scale × weight_scale);
/// because BN-folded biases can exceed the 2^(16−α−β) code range, the
/// layer shares one left-shift exponent: stored value = word << shift.
/// This keeps the paper's bias *precision budget* (16−α−β significant
/// bits) while representing signed, large-magnitude biases — a documented
/// deviation from the paper's unsigned [0, 2^(16−α−β)) segment
/// (DESIGN.md §6).
void quantize_bias(const ir::Op& op, const std::vector<float>& bias, int bias_bits,
                   QConv& out) {
    out.qbias.resize(static_cast<std::size_t>(op.conv.out_c));
    const double limit = static_cast<double>((std::int64_t{1} << (bias_bits - 1)) - 1);
    double max_code = 0.0;
    std::vector<double> codes(static_cast<std::size_t>(op.conv.out_c));
    for (int oc = 0; oc < op.conv.out_c; ++oc) {
        const double scale =
            static_cast<double>(out.act.scale) * static_cast<double>(out.wq(oc).scale);
        codes[static_cast<std::size_t>(oc)] =
            static_cast<double>(bias[static_cast<std::size_t>(oc)]) / scale;
        max_code = std::max(max_code, std::abs(codes[static_cast<std::size_t>(oc)]));
    }
    int shift = 0;
    while (max_code / static_cast<double>(std::int64_t{1} << shift) > limit && shift < 30)
        ++shift;
    const double step = static_cast<double>(std::int64_t{1} << shift);
    for (int oc = 0; oc < op.conv.out_c; ++oc) {
        const double word = std::clamp(std::nearbyint(codes[static_cast<std::size_t>(oc)] / step),
                                       -limit, limit);
        out.qbias[static_cast<std::size_t>(oc)] = static_cast<std::int32_t>(word * step);
    }
}

/// ACIQ-style one-sided clip for post-ReLU activations modelled as a
/// shifted Laplace: minimize tail-clipping MSE + rounding MSE over [0, c].
double aciq_activation_clip(const TensorStats& stats, int bits) {
    const double b = std::max(1e-6, static_cast<double>(stats.abs_dev));
    const double mu = static_cast<double>(stats.mean);
    const double levels = std::pow(4.0, bits);
    auto objective = [&](double c) {
        const double clip_mse = b * b * std::exp(-(c - mu) / b);
        const double round_mse = c * c / (12.0 * levels);
        return clip_mse + round_mse;
    };
    const double c = golden_min(objective, mu, mu + 24.0 * b, 40);
    // Never clip beyond the observed range.
    return std::min(c, static_cast<double>(stats.max));
}

/// Per-channel ACIQ weight parameters (Laplace clip around the channel
/// mean, asymmetric code assignment over the clipped range).
std::vector<QuantParams> aciq_weight_params(const ir::Op& op, int bits) {
    const std::size_t kdim = op.weights.size() / static_cast<std::size_t>(op.conv.out_c);
    std::vector<QuantParams> out(static_cast<std::size_t>(op.conv.out_c));
    for (int oc = 0; oc < op.conv.out_c; ++oc) {
        const float* row = op.weights.data() + static_cast<std::size_t>(oc) * kdim;
        const TensorStats s = compute_stats(row, kdim);
        const double clip = aciq_laplace_clip(std::max(1e-7, (double)s.abs_dev), bits);
        const float lo = std::max(s.min, static_cast<float>(s.mean - clip));
        const float hi = std::min(s.max, static_cast<float>(s.mean + clip));
        out[static_cast<std::size_t>(oc)] = QuantParams::from_range(lo, hi, bits);
    }
    return out;
}

/// ACIQ bias correction: compensate the per-channel mean weight
/// quantization error using the calibrated mean input activation.
std::vector<float> bias_corrected(const ir::Op& op, const QConv& qc, float mean_input) {
    const std::size_t kdim = op.weights.size() / static_cast<std::size_t>(op.conv.out_c);
    std::vector<float> bias = op.bias;
    for (int oc = 0; oc < op.conv.out_c; ++oc) {
        const QuantParams& wq = qc.wq(oc);
        double err_sum = 0.0;
        for (std::size_t k = 0; k < kdim; ++k) {
            const std::size_t idx = static_cast<std::size_t>(oc) * kdim + k;
            err_sum += wq.dequantize(qc.qweights[idx]) -
                       static_cast<double>(op.weights[idx]);
        }
        bias[static_cast<std::size_t>(oc)] -= static_cast<float>(err_sum * mean_input);
    }
    return bias;
}

/// Cross-entropy of quantized logits on the calibration batch (the loss
/// LAPQ minimizes); the caller produces the logits through its runner.
double calib_loss(const tensor::Tensor& logits, const CalibrationData& calib) {
    const auto& s = logits.shape();
    double total = 0.0;
    for (int n = 0; n < s.n; ++n) {
        float max_logit = logits.at(n, 0, 0, 0);
        for (int c = 1; c < s.c; ++c) max_logit = std::max(max_logit, logits.at(n, c, 0, 0));
        double denom = 0.0;
        for (int c = 0; c < s.c; ++c)
            denom += std::exp(static_cast<double>(logits.at(n, c, 0, 0) - max_logit));
        const int label = calib.labels[static_cast<std::size_t>(n)];
        total -= static_cast<double>(logits.at(n, label, 0, 0) - max_logit) - std::log(denom);
    }
    return total / static_cast<double>(s.n);
}

/// The multiplier-free half of LAPQ's clips for one conv: the ACIQ
/// activation clip of its input, and each output channel's weight stats
/// and ACIQ Laplace clip. Every probe scales these same numbers.
struct AciqClips {
    double act_clip = 0.0;
    std::vector<TensorStats> weight_stats;  ///< per output channel
    std::vector<double> weight_clip;        ///< per output channel
};

/// AciqClips per op (empty for non-conv ops), once per LAPQ search.
std::vector<AciqClips> aciq_clips(const ir::Graph& graph, const QuantConfig& config,
                                  const CalibrationData& calib) {
    const auto& ops = graph.ops();
    std::vector<AciqClips> clips(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ir::Op& op = ops[i];
        if (op.kind != ir::OpKind::Conv2d) continue;
        AciqClips& c = clips[i];
        c.act_clip = aciq_activation_clip(
            calib.per_tensor[static_cast<std::size_t>(op.inputs[0])], config.act_bits);
        const std::size_t kdim = op.weights.size() / static_cast<std::size_t>(op.conv.out_c);
        for (int oc = 0; oc < op.conv.out_c; ++oc) {
            const float* row = op.weights.data() + static_cast<std::size_t>(oc) * kdim;
            const TensorStats s = compute_stats(row, kdim);
            c.weight_stats.push_back(s);
            c.weight_clip.push_back(
                aciq_laplace_clip(std::max(1e-7, (double)s.abs_dev), config.weight_bits));
        }
    }
    return clips;
}

/// Build a quantized graph where all clips are ACIQ clips scaled by
/// (act_mult, weight_mult) — the parameterization LAPQ searches over.
QuantizedGraph build_scaled(const ir::Graph& graph, const QuantConfig& config,
                            const CalibrationData& calib, const std::vector<AciqClips>& clips,
                            double act_mult, double weight_mult) {
    QuantizedGraph qgraph(graph, config);
    const auto& ops = graph.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ir::Op& op = ops[i];
        if (op.kind != ir::OpKind::Conv2d) continue;
        QConv& qc = qgraph.conv(i);
        const AciqClips& c = clips[i];
        const TensorStats& in_stats = calib.per_tensor[static_cast<std::size_t>(op.inputs[0])];
        const double clip = std::min(static_cast<double>(in_stats.max), c.act_clip * act_mult);
        qc.act = QuantParams::activation_range(static_cast<float>(clip), config.act_bits);

        std::vector<QuantParams> wq(static_cast<std::size_t>(op.conv.out_c));
        for (std::size_t oc = 0; oc < wq.size(); ++oc) {
            const TensorStats& s = c.weight_stats[oc];
            const double w_clip = c.weight_clip[oc] * weight_mult;
            const float lo = std::max(s.min, static_cast<float>(s.mean - w_clip));
            const float hi = std::min(s.max, static_cast<float>(s.mean + w_clip));
            wq[oc] = QuantParams::from_range(lo, hi, config.weight_bits);
        }
        quantize_weights(op, wq, qc);
        quantize_bias(op, op.bias, config.bias_bits, qc);
    }
    return qgraph;
}

}  // namespace

double aciq_laplace_clip(double b, int bits) {
    // MSE(clip) = 2 b^2 e^{-clip/b}          (two Laplace tails)
    //           + clip^2 / (3 * 4^bits)      (uniform rounding over 2*clip)
    const double levels = std::pow(4.0, bits);
    auto objective = [&](double c) {
        return 2.0 * b * b * std::exp(-c / b) + c * c / (3.0 * levels);
    };
    return golden_min(objective, 0.5 * b, 30.0 * b, 48);
}

const char* method_label(Method m) {
    switch (m) {
        case Method::M1_UniformSymmetric: return "M1";
        case Method::M2_MinMaxAsymmetric: return "M2";
        case Method::M3_Lapq: return "M3";
        case Method::M4_Aciq: return "M4";
        case Method::M5_AciqNoBias: return "M5";
    }
    return "?";
}

const char* method_name(Method m) {
    switch (m) {
        case Method::M1_UniformSymmetric: return "uniform-symmetric [16]";
        case Method::M2_MinMaxAsymmetric: return "asymmetric-minmax [17]";
        case Method::M3_Lapq: return "LAPQ [19]";
        case Method::M4_Aciq: return "ACIQ [18]";
        case Method::M5_AciqNoBias: return "ACIQ w/o bias corr. [18]";
    }
    return "?";
}

std::vector<Method> all_methods() {
    return {Method::M1_UniformSymmetric, Method::M2_MinMaxAsymmetric, Method::M3_Lapq,
            Method::M4_Aciq, Method::M5_AciqNoBias};
}

QuantizedGraph quantize_graph(const ir::Graph& graph, Method method, const QuantConfig& config,
                              const CalibrationData& calib, QuantRunner* runner) {
    if (calib.per_tensor.size() != static_cast<std::size_t>(graph.num_tensors()))
        throw std::invalid_argument("quantize_graph: calibration does not match graph");

    if (method == Method::M3_Lapq) {
        // LAPQ: loss-aware clip search. Coarse stage-wise grid over the
        // (weight, activation) clip multipliers, then golden-section
        // refinement of each coordinate against the calibration loss.
        // Every probe shares one runner: the plan and all scratch buffers
        // are compiled once, only the quantization payload is rebound
        // (owning rebind — the runner pins each probe graph itself).
        std::unique_ptr<QuantRunner> own_runner;
        const std::vector<AciqClips> clips = aciq_clips(graph, config, calib);
        const auto probe_loss = [&](double ma, double mw) {
            auto probe = std::make_shared<const QuantizedGraph>(
                build_scaled(graph, config, calib, clips, ma, mw));
            if (!runner) {
                own_runner =
                    std::make_unique<QuantRunner>(std::move(probe), calib.images.shape().n);
                runner = own_runner.get();
            } else {
                runner->rebind(std::move(probe));
            }
            return calib_loss(runner->run(calib.images), calib);
        };
        const double grid[] = {0.6, 0.8, 1.0, 1.3, 1.7};
        double best_w = 1.0, best_loss = 1e300;
        for (const double mw : grid) {
            const double loss = probe_loss(1.0, mw);
            if (loss < best_loss) {
                best_loss = loss;
                best_w = mw;
            }
        }
        // The weight grid already probed (1.0, best_w): its loss is best_loss.
        const double unit_a_loss = best_loss;
        double best_a = 1.0;
        best_loss = 1e300;
        for (const double ma : grid) {
            const double loss = ma == 1.0 ? unit_a_loss : probe_loss(ma, best_w);
            if (loss < best_loss) {
                best_loss = loss;
                best_a = ma;
            }
        }
        best_w = golden_min([&](double mw) { return probe_loss(best_a, mw); }, best_w * 0.7,
                            best_w * 1.4, 5);
        best_a = golden_min([&](double ma) { return probe_loss(ma, best_w); }, best_a * 0.7,
                            best_a * 1.4, 5);
        return build_scaled(graph, config, calib, clips, best_a, best_w);
    }

    QuantizedGraph qgraph(graph, config);
    const auto& ops = graph.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ir::Op& op = ops[i];
        if (op.kind != ir::OpKind::Conv2d) continue;
        QConv& qc = qgraph.conv(i);
        const TensorStats& in_stats = calib.per_tensor[static_cast<std::size_t>(op.inputs[0])];

        switch (method) {
            case Method::M1_UniformSymmetric: {
                qc.act = QuantParams::activation_range(in_stats.max, config.act_bits);
                const TensorStats ws = compute_stats(op.weights.data(), op.weights.size());
                const float abs_max = std::max(std::abs(ws.min), std::abs(ws.max));
                quantize_weights(op, {QuantParams::symmetric(abs_max, config.weight_bits)}, qc);
                quantize_bias(op, op.bias, config.bias_bits, qc);
                break;
            }
            case Method::M2_MinMaxAsymmetric: {
                qc.act = QuantParams::activation_range(in_stats.max, config.act_bits);
                const TensorStats ws = compute_stats(op.weights.data(), op.weights.size());
                quantize_weights(op, {QuantParams::from_range(ws.min, ws.max, config.weight_bits)},
                                 qc);
                quantize_bias(op, op.bias, config.bias_bits, qc);
                break;
            }
            case Method::M4_Aciq:
            case Method::M5_AciqNoBias: {
                const double clip = aciq_activation_clip(in_stats, config.act_bits);
                qc.act = QuantParams::activation_range(static_cast<float>(clip), config.act_bits);
                quantize_weights(op, aciq_weight_params(op, config.weight_bits), qc);
                if (method == Method::M4_Aciq) {
                    quantize_bias(op, bias_corrected(op, qc, in_stats.mean), config.bias_bits, qc);
                } else {
                    quantize_bias(op, op.bias, config.bias_bits, qc);
                }
                break;
            }
            case Method::M3_Lapq:
                break;  // handled above
        }
    }
    return qgraph;
}

}  // namespace raq::quant
