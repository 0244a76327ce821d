#include <gtest/gtest.h>

#include "aging/aging_model.hpp"

namespace {

using raq::aging::AgingModel;
using raq::aging::AgingParams;

TEST(AgingModel, FreshChipHasNoDegradation) {
    const AgingModel model;
    EXPECT_DOUBLE_EQ(model.dvth_mv(0.0), 0.0);
}

TEST(AgingModel, EndOfLifeAnchorIs50mVAt10Years) {
    const AgingModel model;
    EXPECT_NEAR(model.dvth_mv(10.0), 50.0, 1e-9);
}

TEST(AgingModel, DegradationIsStrictlyMonotone) {
    const AgingModel model;
    double prev = 0.0;
    for (double years = 0.25; years <= 15.0; years += 0.25) {
        const double d = model.dvth_mv(years);
        EXPECT_GT(d, prev) << "at " << years << " years";
        prev = d;
    }
}

TEST(AgingModel, PowerLawFrontLoadsDegradation) {
    // BTI kinetics: half the lifetime produces much more than half of the
    // remaining shift budget (sub-linear exponent).
    const AgingModel model;
    EXPECT_GT(model.dvth_mv(5.0), 0.5 * model.dvth_mv(10.0));
}

TEST(AgingModel, InverseMappingRoundTrips) {
    const AgingModel model;
    for (double years : {0.5, 1.0, 3.0, 7.0, 10.0}) {
        const double d = model.dvth_mv(years);
        EXPECT_NEAR(model.years_for_dvth(d), years, 1e-6);
    }
}

TEST(AgingModel, TwentyMillivoltsReachedWithinOneToTwoYearsAtMildConditions) {
    // The paper notes "ΔVth = 20 mV may correspond to 1-2 years" depending
    // on operating conditions; under nominal conditions our power law puts
    // 20 mV well before mid-life.
    const AgingModel model;
    const double years = model.years_for_dvth(20.0);
    EXPECT_GT(years, 0.001);
    EXPECT_LT(years, 5.0);
}

TEST(AgingModel, HotterChipAgesFaster) {
    AgingParams hot;
    hot.temperature_c = 105.0;
    AgingParams cold;
    cold.temperature_c = 65.0;
    const AgingModel nominal, hotter(hot), colder(cold);
    EXPECT_GT(hotter.dvth_mv(5.0), nominal.dvth_mv(5.0));
    EXPECT_LT(colder.dvth_mv(5.0), nominal.dvth_mv(5.0));
}

TEST(AgingModel, LowerDutyCycleAgesSlower) {
    AgingParams relaxed;
    relaxed.duty_cycle = 0.5;
    const AgingModel nominal, part_time(relaxed);
    EXPECT_LT(part_time.dvth_mv(5.0), nominal.dvth_mv(5.0));
}

TEST(AgingModel, HciContributionRaisesLateLifeSlope) {
    AgingParams no_hci;
    no_hci.hci_fraction = 0.0;
    AgingParams with_hci;
    with_hci.hci_fraction = 0.3;
    const AgingModel a(no_hci), b(with_hci);
    // Both hit the same EOL anchor...
    EXPECT_NEAR(a.dvth_mv(10.0), b.dvth_mv(10.0), 1e-9);
    // ...but the HCI blend is smaller early on (sqrt-like term lags).
    EXPECT_LT(b.dvth_mv(1.0), a.dvth_mv(1.0));
}

TEST(AgingModel, StandardLevelsMatchPaper) {
    const auto levels = AgingModel::standard_levels_mv();
    ASSERT_EQ(levels.size(), 6u);
    EXPECT_DOUBLE_EQ(levels.front(), 0.0);
    EXPECT_DOUBLE_EQ(levels.back(), 50.0);
}

TEST(AgingModel, RejectsInvalidInputs) {
    const AgingModel model;
    EXPECT_THROW((void)model.dvth_mv(-1.0), std::invalid_argument);
    EXPECT_THROW((void)model.years_for_dvth(-5.0), std::invalid_argument);
    AgingParams bad;
    bad.eol_years = 0.0;
    EXPECT_THROW(AgingModel{bad}, std::invalid_argument);
    AgingParams bad2;
    bad2.hci_fraction = 1.5;
    EXPECT_THROW(AgingModel{bad2}, std::invalid_argument);
}

}  // namespace
