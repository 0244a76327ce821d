#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "netlist/builders.hpp"
#include "netlist/netlist.hpp"

namespace {

using raq::netlist::AdderKind;
using raq::netlist::build_adder_circuit;
using raq::netlist::build_mac_circuit;
using raq::netlist::build_multiplier_circuit;
using raq::netlist::MacConfig;
using raq::netlist::MultiplierKind;
using raq::netlist::Netlist;

/// Evaluate a two-operand circuit on 64 (a, b) pairs at once and return
/// the selected output bus per lane.
std::vector<std::uint64_t> eval_pairs(const Netlist& nl, const std::string& out_bus,
                                      const std::vector<std::uint64_t>& as,
                                      const std::vector<std::uint64_t>& bs,
                                      const std::vector<std::uint64_t>* cs = nullptr) {
    const auto& abits = nl.input_bus("A");
    const auto& bbits = nl.input_bus("B");
    std::vector<std::uint64_t> pi_words(nl.primary_inputs().size(), 0);
    for (std::size_t lane = 0; lane < as.size(); ++lane) {
        for (std::size_t i = 0; i < abits.size(); ++i)
            pi_words[static_cast<std::size_t>(abits[i])] |= ((as[lane] >> i) & 1ULL) << lane;
        for (std::size_t i = 0; i < bbits.size(); ++i)
            pi_words[static_cast<std::size_t>(bbits[i])] |= ((bs[lane] >> i) & 1ULL) << lane;
        if (cs) {
            const auto& cbits = nl.input_bus("C");
            for (std::size_t i = 0; i < cbits.size(); ++i)
                pi_words[static_cast<std::size_t>(cbits[i])] |= (((*cs)[lane] >> i) & 1ULL) << lane;
        }
    }
    const auto words = nl.eval_words(pi_words);
    std::vector<std::uint64_t> out(as.size());
    for (std::size_t lane = 0; lane < as.size(); ++lane)
        out[lane] = nl.bus_value(words, out_bus, static_cast<int>(lane));
    return out;
}

class AdderExhaustive : public ::testing::TestWithParam<AdderKind> {};

TEST_P(AdderExhaustive, EightBitAllPairs) {
    const Netlist nl = build_adder_circuit(8, GetParam());
    std::vector<std::uint64_t> as, bs;
    as.reserve(64);
    bs.reserve(64);
    for (int a = 0; a < 256; ++a) {
        for (int b = 0; b < 256; ++b) {
            as.push_back(static_cast<std::uint64_t>(a));
            bs.push_back(static_cast<std::uint64_t>(b));
            if (as.size() == 64) {
                const auto sums = eval_pairs(nl, "S", as, bs);
                const auto couts = eval_pairs(nl, "COUT", as, bs);
                for (std::size_t lane = 0; lane < 64; ++lane) {
                    const std::uint64_t total = as[lane] + bs[lane];
                    ASSERT_EQ(sums[lane], total & 0xFF)
                        << as[lane] << "+" << bs[lane] << " kind "
                        << raq::netlist::adder_name(GetParam());
                    ASSERT_EQ(couts[lane], total >> 8);
                }
                as.clear();
                bs.clear();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllAdders, AdderExhaustive,
                         ::testing::Values(AdderKind::RippleCarry, AdderKind::Sklansky,
                                           AdderKind::KoggeStone, AdderKind::CarrySelect),
                         [](const auto& info) {
                             switch (info.param) {
                                 case AdderKind::RippleCarry: return "Ripple";
                                 case AdderKind::Sklansky: return "Sklansky";
                                 case AdderKind::KoggeStone: return "KoggeStone";
                                 case AdderKind::CarrySelect: return "CarrySelect";
                             }
                             return "Unknown";
                         });

class AdderRandomWide : public ::testing::TestWithParam<std::tuple<AdderKind, int>> {};

TEST_P(AdderRandomWide, RandomVectorsMatchArithmetic) {
    const auto [kind, width] = GetParam();
    const Netlist nl = build_adder_circuit(width, kind);
    raq::common::Rng rng(0xABCDu + static_cast<unsigned>(width));
    const std::uint64_t mask = (width >= 64) ? ~0ULL : ((1ULL << width) - 1);
    std::vector<std::uint64_t> as(64), bs(64);
    for (int round = 0; round < 40; ++round) {
        for (auto& a : as) a = rng.next_u64() & mask;
        for (auto& b : bs) b = rng.next_u64() & mask;
        const auto sums = eval_pairs(nl, "S", as, bs);
        for (std::size_t lane = 0; lane < 64; ++lane)
            ASSERT_EQ(sums[lane], (as[lane] + bs[lane]) & mask);
    }
}

INSTANTIATE_TEST_SUITE_P(
    WideAdders, AdderRandomWide,
    ::testing::Combine(::testing::Values(AdderKind::RippleCarry, AdderKind::Sklansky,
                                         AdderKind::KoggeStone, AdderKind::CarrySelect),
                       ::testing::Values(16, 22, 33)));

class MultiplierExhaustive : public ::testing::TestWithParam<MultiplierKind> {};

TEST_P(MultiplierExhaustive, FourBitAllPairs) {
    const Netlist nl = build_multiplier_circuit(4, GetParam());
    std::vector<std::uint64_t> as, bs;
    for (int a = 0; a < 16; ++a)
        for (int b = 0; b < 16; ++b) {
            as.push_back(static_cast<std::uint64_t>(a));
            bs.push_back(static_cast<std::uint64_t>(b));
        }
    for (std::size_t base = 0; base < as.size(); base += 64) {
        const std::vector<std::uint64_t> asub(as.begin() + static_cast<long>(base),
                                              as.begin() + static_cast<long>(base + 64));
        const std::vector<std::uint64_t> bsub(bs.begin() + static_cast<long>(base),
                                              bs.begin() + static_cast<long>(base + 64));
        const auto prods = eval_pairs(nl, "P", asub, bsub);
        for (std::size_t lane = 0; lane < 64; ++lane)
            ASSERT_EQ(prods[lane], asub[lane] * bsub[lane]);
    }
}

TEST_P(MultiplierExhaustive, EightBitRandom) {
    const Netlist nl = build_multiplier_circuit(8, GetParam());
    raq::common::Rng rng(0xBEEF);
    std::vector<std::uint64_t> as(64), bs(64);
    for (int round = 0; round < 100; ++round) {
        for (auto& a : as) a = rng.next_below(256);
        for (auto& b : bs) b = rng.next_below(256);
        const auto prods = eval_pairs(nl, "P", as, bs);
        for (std::size_t lane = 0; lane < 64; ++lane)
            ASSERT_EQ(prods[lane], as[lane] * bs[lane]);
    }
}

INSTANTIATE_TEST_SUITE_P(AllMultipliers, MultiplierExhaustive,
                         ::testing::Values(MultiplierKind::Array, MultiplierKind::Wallace),
                         [](const auto& info) {
                             return info.param == MultiplierKind::Array ? "Array" : "Wallace";
                         });

TEST(MultiplierCorners, EdgeOperands) {
    for (const auto kind : {MultiplierKind::Array, MultiplierKind::Wallace}) {
        const Netlist nl = build_multiplier_circuit(8, kind);
        std::vector<std::uint64_t> as{0, 0, 255, 255, 1, 128, 255, 1};
        std::vector<std::uint64_t> bs{0, 255, 0, 255, 1, 128, 1, 255};
        as.resize(64, 0);
        bs.resize(64, 0);
        const auto prods = eval_pairs(nl, "P", as, bs);
        for (std::size_t lane = 0; lane < 8; ++lane)
            EXPECT_EQ(prods[lane], as[lane] * bs[lane]);
    }
}

TEST(Mac, DefaultConfigMatchesArithmetic) {
    const Netlist nl = build_mac_circuit();
    raq::common::Rng rng(0xFACE);
    const std::uint64_t acc_mask = (1ULL << 22) - 1;
    std::vector<std::uint64_t> as(64), bs(64), cs(64);
    for (int round = 0; round < 60; ++round) {
        for (std::size_t i = 0; i < 64; ++i) {
            as[i] = rng.next_below(256);
            bs[i] = rng.next_below(256);
            cs[i] = rng.next_below(1ULL << 22);
        }
        const auto sums = eval_pairs(nl, "S", as, bs, &cs);
        for (std::size_t lane = 0; lane < 64; ++lane)
            ASSERT_EQ(sums[lane], (as[lane] * bs[lane] + cs[lane]) & acc_mask);
    }
}

TEST(Mac, AllArchitectureCombinationsCorrect) {
    raq::common::Rng rng(0xD00D);
    for (const auto mult : {MultiplierKind::Array, MultiplierKind::Wallace}) {
        for (const auto acc : {AdderKind::RippleCarry, AdderKind::Sklansky,
                               AdderKind::KoggeStone, AdderKind::CarrySelect}) {
            MacConfig cfg;
            cfg.multiplier = mult;
            cfg.accumulator_adder = acc;
            const Netlist nl = build_mac_circuit(cfg);
            std::vector<std::uint64_t> as(64), bs(64), cs(64);
            for (std::size_t i = 0; i < 64; ++i) {
                as[i] = rng.next_below(256);
                bs[i] = rng.next_below(256);
                cs[i] = rng.next_below(1ULL << 22);
            }
            const auto sums = eval_pairs(nl, "S", as, bs, &cs);
            for (std::size_t lane = 0; lane < 64; ++lane)
                ASSERT_EQ(sums[lane], (as[lane] * bs[lane] + cs[lane]) & ((1ULL << 22) - 1))
                    << raq::netlist::multiplier_name(mult) << "+"
                    << raq::netlist::adder_name(acc);
        }
    }
}

TEST(Mac, RejectsBadConfigs) {
    MacConfig narrow;
    narrow.acc_width = 10;  // narrower than the 16-bit product
    EXPECT_THROW(build_mac_circuit(narrow), std::invalid_argument);
    MacConfig tiny;
    tiny.mul_width = 1;
    EXPECT_THROW(build_mac_circuit(tiny), std::invalid_argument);
}

TEST(NetlistStructure, GatesAreTopologicallyOrdered) {
    const Netlist nl = build_mac_circuit();
    // Construction invariant: a gate's input nets always exist before its
    // output net is created.
    for (const auto& gate : nl.gates())
        for (int i = 0; i < gate.num_inputs(); ++i)
            ASSERT_LT(gate.inputs[i], gate.output);
}

TEST(NetlistStructure, DriversAndFanoutsConsistent) {
    const Netlist nl = build_multiplier_circuit(6);
    for (std::size_t g = 0; g < nl.num_gates(); ++g) {
        const auto& gate = nl.gates()[g];
        EXPECT_EQ(nl.driver(gate.output), static_cast<std::int32_t>(g));
        for (int i = 0; i < gate.num_inputs(); ++i) {
            const auto& fo = nl.fanout(gate.inputs[i]);
            EXPECT_NE(std::find(fo.begin(), fo.end(), static_cast<std::int32_t>(g)), fo.end());
        }
    }
}

TEST(NetlistStructure, MacSizeIsPlausible) {
    // The 8x8 Wallace multiplier + 22-bit accumulator should land in the
    // few-hundred-to-low-thousands gate range (DesignWare-class MAC).
    const Netlist nl = build_mac_circuit();
    EXPECT_GT(nl.num_gates(), 300u);
    EXPECT_LT(nl.num_gates(), 3000u);
    EXPECT_EQ(nl.input_bus("A").size(), 8u);
    EXPECT_EQ(nl.input_bus("B").size(), 8u);
    EXPECT_EQ(nl.input_bus("C").size(), 22u);
    EXPECT_EQ(nl.output_bus("S").size(), 22u);
}

TEST(NetlistStructure, CellHistogramCountsAllGates) {
    const Netlist nl = build_multiplier_circuit(8);
    const auto hist = nl.cell_histogram();
    std::size_t total = 0;
    for (int count : hist) total += static_cast<std::size_t>(count);
    EXPECT_EQ(total, nl.num_gates());
}

TEST(NetlistStructure, BusAccessorsValidate) {
    const Netlist nl = build_multiplier_circuit(4);
    EXPECT_TRUE(nl.has_input_bus("A"));
    EXPECT_TRUE(nl.has_output_bus("P"));
    EXPECT_FALSE(nl.has_bus("Z"));
    EXPECT_THROW((void)nl.input_bus("nope"), std::out_of_range);
    EXPECT_THROW((void)nl.output_bus("nope"), std::out_of_range);
}

TEST(NetlistStructure, EvalWordsValidatesInputCount) {
    const Netlist nl = build_multiplier_circuit(4);
    std::vector<std::uint64_t> wrong(3, 0);
    EXPECT_THROW(nl.eval_words(wrong), std::invalid_argument);
}

}  // namespace
