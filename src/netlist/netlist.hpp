// Gate-level netlist: nets, gates, named buses, topological order and a
// bit-parallel functional simulator (64 vectors per evaluation).
//
// This is the common substrate consumed by the STA engine (src/sta) and
// the event-driven timing simulator (src/sim).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include "common/span.hpp"
#include <string>
#include <vector>

#include "cell/cell.hpp"

namespace raq::netlist {

using NetId = std::int32_t;
inline constexpr NetId kNoNet = -1;

struct Gate {
    cell::CellType type = cell::CellType::Inv;
    std::array<NetId, 3> inputs{kNoNet, kNoNet, kNoNet};
    NetId output = kNoNet;

    [[nodiscard]] int num_inputs() const { return cell::num_inputs(type); }
};

/// A netlist under construction or analysis. Gates must be added after all
/// of their input nets exist; generators therefore naturally emit gates in
/// topological order, which the class verifies.
class Netlist {
public:
    Netlist() = default;

    // --- construction -----------------------------------------------------
    NetId add_net(std::string name = {});
    NetId add_primary_input(const std::string& name);
    void mark_primary_output(NetId net, const std::string& name);

    /// Constant nets (lazily created; no driver, fixed logic value).
    NetId const_zero();
    NetId const_one();

    /// Add a gate; returns its output net (freshly created).
    NetId add_gate(cell::CellType type, common::Span<const NetId> inputs,
                   std::string output_name = {});
    NetId add_gate(cell::CellType type, std::initializer_list<NetId> inputs,
                   std::string output_name = {}) {
        return add_gate(type, common::Span<const NetId>(inputs.begin(), inputs.size()),
                        std::move(output_name));
    }

    /// Named bus helpers (bit 0 = LSB).
    std::vector<NetId> add_input_bus(const std::string& name, int width);
    void mark_output_bus(const std::string& name, const std::vector<NetId>& bits);
    [[nodiscard]] const std::vector<NetId>& input_bus(const std::string& name) const;
    [[nodiscard]] const std::vector<NetId>& output_bus(const std::string& name) const;
    [[nodiscard]] bool has_bus(const std::string& name) const;
    [[nodiscard]] bool has_input_bus(const std::string& name) const;
    [[nodiscard]] bool has_output_bus(const std::string& name) const;

    // --- inspection --------------------------------------------------------
    [[nodiscard]] std::size_t num_nets() const { return net_names_.size(); }
    [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }
    [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
    [[nodiscard]] const std::vector<NetId>& primary_inputs() const { return primary_inputs_; }
    [[nodiscard]] const std::vector<NetId>& primary_outputs() const { return primary_outputs_; }
    [[nodiscard]] const std::string& net_name(NetId net) const;
    [[nodiscard]] bool is_primary_input(NetId net) const;
    [[nodiscard]] NetId const_zero_net() const { return const0_; }  // kNoNet if unused
    [[nodiscard]] NetId const_one_net() const { return const1_; }

    /// Gate indices that read the given net.
    [[nodiscard]] const std::vector<std::int32_t>& fanout(NetId net) const {
        return fanouts_[static_cast<std::size_t>(net)];
    }
    /// Index of the gate driving this net, or -1 for PIs/constants.
    [[nodiscard]] std::int32_t driver(NetId net) const {
        return drivers_[static_cast<std::size_t>(net)];
    }

    /// Histogram of cell types, for area/leakage roll-ups and reports.
    [[nodiscard]] std::array<int, cell::kNumCellTypes> cell_histogram() const;

    // --- functional simulation ----------------------------------------------
    /// Evaluate 64 input vectors at once. `pi_words[i]` carries the values of
    /// primary input i across the 64 vectors; returns one word per net.
    [[nodiscard]] std::vector<std::uint64_t> eval_words(
        common::Span<const std::uint64_t> pi_words) const;

    /// Read a bus value out of an eval_words() result for vector lane `lane`.
    [[nodiscard]] std::uint64_t bus_value(const std::vector<std::uint64_t>& net_words,
                                          const std::string& bus, int lane) const;

private:
    std::vector<std::string> net_names_;
    std::vector<Gate> gates_;
    std::vector<NetId> primary_inputs_;
    std::vector<NetId> primary_outputs_;
    std::vector<std::int32_t> drivers_;               // per net
    std::vector<std::vector<std::int32_t>> fanouts_;  // per net
    std::map<std::string, std::vector<NetId>> input_buses_;
    std::map<std::string, std::vector<NetId>> output_buses_;
    NetId const0_ = kNoNet;
    NetId const1_ = kNoNet;
};

}  // namespace raq::netlist
