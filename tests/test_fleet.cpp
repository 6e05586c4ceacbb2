// Fleet deployment tests: the Sec. IV-A full/split scenarios at network
// scale — redundancy, DoS coverage, spoofing coverage, CPU savings.
#include "core/fleet.hpp"

#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "restbus/vehicles.hpp"

namespace mcan::core {
namespace {

using attack::Attacker;

restbus::CommMatrix small_matrix() {
  // A compact IVN so fleet tests stay fast: 8 ECUs, one ID each.
  std::vector<restbus::MessageDef> msgs;
  const can::CanId ids[] = {0x0C0, 0x120, 0x173, 0x1B0,
                            0x240, 0x300, 0x3A0, 0x450};
  int i = 0;
  for (const auto id : ids) {
    // Appended, not `"M" + std::to_string(i)`: GCC 12 -O3 raises a
    // false-positive -Wrestrict on that concatenation inside libstdc++.
    std::string msg = "M";
    std::string ecu = "E";
    msg.append(std::to_string(i));
    ecu.append(std::to_string(i));
    msgs.push_back({id, 50.0 + 25.0 * i, 8, msg, ecu});
    ++i;
  }
  return restbus::CommMatrix{"small", std::move(msgs)};
}

TEST(Fleet, BuildsOneNodePerMessage) {
  can::WiredAndBus bus{sim::BusSpeed{125'000}};
  Fleet fleet{small_matrix(), bus};
  EXPECT_EQ(fleet.size(), 8u);
  EXPECT_EQ(fleet.full_nodes() + fleet.light_nodes(), 8u);
  EXPECT_EQ(fleet.light_nodes(), 4u);  // split: lower half light
  EXPECT_NE(fleet.find(0x173), nullptr);
  EXPECT_EQ(fleet.find(0x7FF), nullptr);
}

TEST(Fleet, ApplicationTrafficFlows) {
  can::WiredAndBus bus{sim::BusSpeed{125'000}};
  Fleet fleet{small_matrix(), bus};
  bus.run_for(sim::Millis{500.0});
  EXPECT_GT(fleet.total_frames_sent(), 30u);
  EXPECT_FALSE(fleet.any_defender_bus_off());
  EXPECT_EQ(fleet.max_defender_tec(), 0);
  EXPECT_EQ(fleet.total_counterattacks(), 0u);  // no attack, no reaction
}

class FleetPolicy : public ::testing::TestWithParam<DeploymentPolicy> {};

TEST_P(FleetPolicy, DosAttackHandledPerPolicy) {
  can::WiredAndBus bus{sim::BusSpeed{125'000}};
  FleetConfig cfg;
  cfg.policy = GetParam();
  Fleet fleet{small_matrix(), bus, cfg};
  auto acfg = Attacker::targeted_dos(0x050);
  acfg.persistent = false;
  Attacker atk{"attacker", acfg};
  atk.attach_to(bus);
  bus.run_for(sim::Millis{200.0});

  if (GetParam() == DeploymentPolicy::DetectionOnly) {
    EXPECT_FALSE(atk.node().is_bus_off());
    EXPECT_GT(fleet.total_attacks_detected(), 0u);
    EXPECT_EQ(fleet.total_counterattacks(), 0u);
  } else {
    // AllFull and Split both eradicate the DoS (the upper half provides
    // coverage in the split case).
    EXPECT_TRUE(atk.node().is_bus_off());
    EXPECT_GT(fleet.total_counterattacks(), 0u);
  }
  EXPECT_FALSE(fleet.any_defender_bus_off());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FleetPolicy,
    ::testing::Values(DeploymentPolicy::AllFull, DeploymentPolicy::Split,
                      DeploymentPolicy::DetectionOnly),
    [](const ::testing::TestParamInfo<DeploymentPolicy>& p) {
      switch (p.param) {
        case DeploymentPolicy::AllFull: return std::string{"AllFull"};
        case DeploymentPolicy::Split: return std::string{"Split"};
        case DeploymentPolicy::DetectionOnly:
          return std::string{"DetectionOnly"};
      }
      return std::string{"?"};
    });

TEST(Fleet, SplitCutsNetworkCpuBill) {
  // The Sec. IV-A cost argument, measured: run identical traffic under
  // both policies and compare the summed CPU loads.
  auto run = [](DeploymentPolicy policy) {
    can::WiredAndBus bus{sim::BusSpeed{125'000}};
    FleetConfig cfg;
    cfg.policy = policy;
    Fleet fleet{small_matrix(), bus, cfg};
    bus.run_for(sim::Millis{1000.0});
    return fleet.total_cpu_load(mcu::arduino_due(), 125e3);
  };
  const double full = run(DeploymentPolicy::AllFull);
  const double split = run(DeploymentPolicy::Split);
  EXPECT_LT(split, full);
  EXPECT_GT(split, 0.5 * full * 0.5);  // sane, non-degenerate numbers
}

TEST(Fleet, SpoofingOfLightNodeStillPunished) {
  // In the split deployment the light half still guards its own IDs.
  can::WiredAndBus bus{sim::BusSpeed{125'000}};
  FleetConfig cfg;
  cfg.policy = DeploymentPolicy::Split;
  cfg.with_app_traffic = false;  // silent victims: avoid same-ID collisions
  Fleet fleet{small_matrix(), bus, cfg};
  auto acfg = Attacker::spoof(0x0C0);  // lowest ID = a light node
  acfg.persistent = false;
  Attacker atk{"attacker", acfg};
  atk.attach_to(bus);
  bus.run_for(sim::Millis{200.0});
  EXPECT_TRUE(atk.node().is_bus_off());
  EXPECT_GT(fleet.find(0x0C0)->monitor().stats().counterattacks, 0u);
}

TEST(Fleet, RedundantDefendersAgreeOnAttackCount) {
  // Every full-scenario node must see the same number of attacks — the
  // distributed-detection redundancy claim.
  can::WiredAndBus bus{sim::BusSpeed{125'000}};
  FleetConfig cfg;
  cfg.policy = DeploymentPolicy::AllFull;
  cfg.with_app_traffic = false;
  Fleet fleet{small_matrix(), bus, cfg};
  auto acfg = Attacker::targeted_dos(0x050);
  acfg.persistent = false;
  Attacker atk{"attacker", acfg};
  atk.attach_to(bus);
  bus.run_for(sim::Millis{200.0});
  ASSERT_TRUE(atk.node().is_bus_off());
  const auto expected = fleet.nodes()[0]->monitor().stats().attacks_detected;
  EXPECT_GT(expected, 0u);
  for (const auto& node : fleet.nodes()) {
    EXPECT_EQ(node->monitor().stats().attacks_detected, expected)
        << node->name();
  }
}

}  // namespace
}  // namespace mcan::core
