#include "netlist/netlist.hpp"

#include <stdexcept>

namespace raq::netlist {

NetId Netlist::add_net(std::string name) {
    const NetId id = static_cast<NetId>(net_names_.size());
    if (name.empty()) name = "n" + std::to_string(id);
    net_names_.push_back(std::move(name));
    drivers_.push_back(-1);
    fanouts_.emplace_back();
    return id;
}

NetId Netlist::add_primary_input(const std::string& name) {
    const NetId id = add_net(name);
    primary_inputs_.push_back(id);
    return id;
}

void Netlist::mark_primary_output(NetId net, const std::string& name) {
    if (net < 0 || static_cast<std::size_t>(net) >= net_names_.size())
        throw std::out_of_range("Netlist: bad output net");
    primary_outputs_.push_back(net);
    if (!name.empty()) net_names_[static_cast<std::size_t>(net)] = name;
}

NetId Netlist::const_zero() {
    if (const0_ == kNoNet) const0_ = add_net("const0");
    return const0_;
}

NetId Netlist::const_one() {
    if (const1_ == kNoNet) const1_ = add_net("const1");
    return const1_;
}

NetId Netlist::add_gate(cell::CellType type, common::Span<const NetId> inputs,
                        std::string output_name) {
    const int expect = cell::num_inputs(type);
    if (static_cast<int>(inputs.size()) != expect)
        throw std::invalid_argument("Netlist: wrong input count for cell");
    Gate gate;
    gate.type = type;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const NetId in = inputs[i];
        if (in < 0 || static_cast<std::size_t>(in) >= net_names_.size())
            throw std::out_of_range("Netlist: gate input net does not exist");
        gate.inputs[i] = in;
    }
    gate.output = add_net(std::move(output_name));
    const auto gate_index = static_cast<std::int32_t>(gates_.size());
    drivers_[static_cast<std::size_t>(gate.output)] = gate_index;
    for (int i = 0; i < expect; ++i)
        fanouts_[static_cast<std::size_t>(gate.inputs[i])].push_back(gate_index);
    gates_.push_back(gate);
    return gate.output;
}

std::vector<NetId> Netlist::add_input_bus(const std::string& name, int width) {
    if (width <= 0) throw std::invalid_argument("Netlist: bus width must be positive");
    if (input_buses_.count(name)) throw std::invalid_argument("Netlist: duplicate bus " + name);
    std::vector<NetId> bits;
    bits.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i)
        bits.push_back(add_primary_input(name + "[" + std::to_string(i) + "]"));
    input_buses_[name] = bits;
    return bits;
}

void Netlist::mark_output_bus(const std::string& name, const std::vector<NetId>& bits) {
    if (output_buses_.count(name)) throw std::invalid_argument("Netlist: duplicate bus " + name);
    for (std::size_t i = 0; i < bits.size(); ++i)
        mark_primary_output(bits[i], name + "[" + std::to_string(i) + "]");
    output_buses_[name] = bits;
}

const std::vector<NetId>& Netlist::input_bus(const std::string& name) const {
    const auto it = input_buses_.find(name);
    if (it == input_buses_.end()) throw std::out_of_range("Netlist: no input bus " + name);
    return it->second;
}

const std::vector<NetId>& Netlist::output_bus(const std::string& name) const {
    const auto it = output_buses_.find(name);
    if (it == output_buses_.end()) throw std::out_of_range("Netlist: no output bus " + name);
    return it->second;
}

bool Netlist::has_bus(const std::string& name) const {
    return input_buses_.count(name) != 0 || output_buses_.count(name) != 0;
}

bool Netlist::has_input_bus(const std::string& name) const {
    return input_buses_.count(name) != 0;
}

bool Netlist::has_output_bus(const std::string& name) const {
    return output_buses_.count(name) != 0;
}

const std::string& Netlist::net_name(NetId net) const {
    return net_names_.at(static_cast<std::size_t>(net));
}

bool Netlist::is_primary_input(NetId net) const {
    for (NetId pi : primary_inputs_)
        if (pi == net) return true;
    return false;
}

std::array<int, cell::kNumCellTypes> Netlist::cell_histogram() const {
    std::array<int, cell::kNumCellTypes> hist{};
    for (const Gate& g : gates_) hist[static_cast<int>(g.type)]++;
    return hist;
}

std::vector<std::uint64_t> Netlist::eval_words(
    common::Span<const std::uint64_t> pi_words) const {
    if (pi_words.size() != primary_inputs_.size())
        throw std::invalid_argument("Netlist: eval_words needs one word per primary input");
    std::vector<std::uint64_t> values(net_names_.size(), 0);
    for (std::size_t i = 0; i < primary_inputs_.size(); ++i)
        values[static_cast<std::size_t>(primary_inputs_[i])] = pi_words[i];
    if (const0_ != kNoNet) values[static_cast<std::size_t>(const0_)] = 0;
    if (const1_ != kNoNet) values[static_cast<std::size_t>(const1_)] = ~0ULL;
    // Gates are stored in topological order by construction.
    for (const Gate& g : gates_) {
        std::uint64_t ins[3] = {0, 0, 0};
        const int n = g.num_inputs();
        for (int i = 0; i < n; ++i)
            ins[i] = values[static_cast<std::size_t>(g.inputs[i])];
        values[static_cast<std::size_t>(g.output)] =
            cell::eval_word(g.type, common::Span<const std::uint64_t>(ins, static_cast<std::size_t>(n)));
    }
    return values;
}

std::uint64_t Netlist::bus_value(const std::vector<std::uint64_t>& net_words,
                                 const std::string& bus, int lane) const {
    const auto it_out = output_buses_.find(bus);
    const std::vector<NetId>* bits = nullptr;
    if (it_out != output_buses_.end()) {
        bits = &it_out->second;
    } else {
        const auto it_in = input_buses_.find(bus);
        if (it_in == input_buses_.end()) throw std::out_of_range("Netlist: no bus " + bus);
        bits = &it_in->second;
    }
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bits->size(); ++i) {
        const std::uint64_t word = net_words[static_cast<std::size_t>((*bits)[i])];
        value |= ((word >> lane) & 1ULL) << i;
    }
    return value;
}

}  // namespace raq::netlist
