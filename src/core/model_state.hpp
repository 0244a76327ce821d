// ModelState: one versioned, immutable deployment artifact — the
// QuantizedGraph Algorithm 1 produced together with the metadata it was
// built for. This is the unit the serving runtime double-buffers: a
// device always points at exactly one ModelState, a background
// re-quantization builds the next one off the serving path, and the swap
// is a shared_ptr assignment at a batch boundary. The generation id is
// monotonic per device, so fleet telemetry can order every deployment a
// device ever served.
#pragma once

#include <cstdint>
#include <memory>

#include "common/compression.hpp"
#include "quant/methods.hpp"
#include "quant/quantized_graph.hpp"

namespace raq::core {

struct ModelState {
    /// Monotonic per device; 1 is the initial deployment, 0 means "none".
    std::uint64_t generation = 0;
    std::shared_ptr<const quant::QuantizedGraph> qgraph;
    common::Compression compression;              ///< (α, β, padding) deployed
    quant::Method method = quant::Method::M5_AciqNoBias;
    double dvth_mv = 0.0;  ///< aging level this state was built for — the
                           ///< re-quantization baseline of its successor
    /// Aged STA critical path of `compression` at `dvth_mv`: the clock
    /// period the deployment actually sustains. Devices re-derive their
    /// clock from this on every install, so latency/throughput track the
    /// aged silicon instead of the fresh-forever critical path.
    double aged_delay_ps = 0.0;
    /// Full Algorithm 1 only (both 0 on the fast path): the deployed
    /// method's accuracy on the eval set, and the eval images the method
    /// search scored to choose it (at most 5 × the eval set).
    double eval_accuracy = 0.0;
    int eval_images_scored = 0;
};

}  // namespace raq::core
