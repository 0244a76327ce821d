#include "core/aging_aware_quantizer.hpp"

#include <stdexcept>
#include <utility>

#include "ir/float_executor.hpp"

namespace raq::core {

AagResult AgingAwareQuantizer::run(const AagInputs& in, double dvth_mv,
                                   double guardband_fraction) const {
    if (!in.graph || !in.test_images || !in.test_labels || !in.calib_images ||
        !in.calib_labels)
        throw std::invalid_argument("AgingAwareQuantizer: missing inputs");

    const auto choice = selector_->select(dvth_mv, guardband_fraction);
    if (!choice)
        throw std::runtime_error(
            "AgingAwareQuantizer: no feasible compression at ΔVth = " +
            std::to_string(dvth_mv) + " mV");

    AagResult result;
    result.compression = *choice;
    result.fp32_accuracy = ir::float_accuracy(*in.graph, *in.test_images, *in.test_labels);

    const auto calib = quant::calibrate(*in.graph, *in.calib_images, *in.calib_labels);
    const auto config = quant::QuantConfig::from_compression(choice->compression);

    // Algorithm 1 inner loop, shared with the serving runtime's
    // RequantJob builds (core/requant_job.cpp), in report mode: every
    // method the natural-order loop scores gets its accuracy.
    MethodSearchResult search =
        search_methods(*in.graph, config, calib, *in.test_images, *in.test_labels,
                       result.fp32_accuracy, in.accuracy_loss_threshold, true);
    result.selected_method = search.selected;
    result.quantized_accuracy = search.accuracy;
    result.all_methods = std::move(search.all_methods);
    result.accuracy_loss = 100.0 * (result.fp32_accuracy - result.quantized_accuracy);
    return result;
}

}  // namespace raq::core
