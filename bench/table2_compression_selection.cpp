// Table 2 — The compression (α, β) and padding extracted by Algorithm 1
// (lines 1-5) for each aging level: the minimum-norm (α, β) whose aged
// delay still meets the fresh-clock constraint.
//
// Paper values: (2,0)/LSB, (2,2)/MSB, (3,1)/LSB, (2,4)/LSB, (3,4)/LSB,
// whose norm grows with ΔVth. The feasible set only shrinks as ΔVth
// grows, so two properties must hold on any MAC: the selected norm never
// decreases, and the normalized delay stays <= 1. The bench checks both
// over a 0.25 mV grid from 0 to 50 mV, prints the result and exits 1 if
// either fails. α + β alone is not monotone and is not claimed.
#include <cstdio>

#include "cell/library.hpp"
#include "common/table.hpp"
#include "core/compression_selector.hpp"
#include "netlist/builders.hpp"

int main() {
    using namespace raq;
    const netlist::Netlist mac = netlist::build_mac_circuit();
    const cell::Library fresh = cell::Library::finfet14();
    const core::CompressionSelector selector(mac, fresh);

    std::printf("Table 2: extracted compression per aging level "
                "(constraint: fresh CP = %.1f ps, no guardband)\n\n",
                selector.fresh_critical_path_ps());
    common::Table table({"dVth [mV]", "(a,b)/padding", "aged delay [ps]", "norm. delay",
                         "feasible set size"});
    for (const double dvth : {10.0, 20.0, 30.0, 40.0, 50.0}) {
        const auto choice = selector.select(dvth);
        const auto feasible = selector.feasible(dvth);
        if (!choice) {
            table.add_row({common::Table::fmt(dvth, 0), "none", "-", "-",
                           std::to_string(feasible.size())});
            continue;
        }
        table.add_row({common::Table::fmt(dvth, 0), choice->compression.to_string(),
                       common::Table::fmt(choice->delay_ps, 1),
                       common::Table::fmt(choice->normalized_delay, 3),
                       std::to_string(feasible.size())});
    }
    std::printf("%s\n", table.to_string().c_str());

    constexpr int kGridSteps = 200;  // 0 to 50 mV in 0.25 mV steps
    int missing = 0, norm_decreases = 0, late = 0;
    double prev_norm = 0.0;
    for (int step = 0; step <= kGridSteps; ++step) {
        const auto choice = selector.select(0.25 * step);
        if (!choice) {
            ++missing;
            continue;
        }
        norm_decreases += choice->compression.norm() < prev_norm - 1e-9;
        late += choice->normalized_delay > 1.0 + 1e-9;
        prev_norm = choice->compression.norm();
    }
    const bool holds = missing == 0 && norm_decreases == 0 && late == 0;
    std::printf("paper shape check (%d points, 0-50 mV in 0.25 mV steps): selected norm "
                "never decreases (%d decreases), normalized delay <= 1 (%d above 1, %d "
                "without a selection): %s\n",
                kGridSteps + 1, norm_decreases, late, missing, holds ? "HOLDS" : "FAILS");
    return holds ? 0 : 1;
}
