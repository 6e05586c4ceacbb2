// The complete MichiCAN-equipped ECU: a normal application CAN controller
// plus the Algorithm-1 bit monitor sharing the same physical pins through
// the PIO multiplexer (paper Fig. 4a).
#pragma once

#include <memory>
#include <string>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/node.hpp"
#include "core/detection.hpp"
#include "core/fsm.hpp"
#include "core/monitor.hpp"
#include "mcu/pinmux.hpp"

namespace mcan::core {

struct MichiCanNodeConfig {
  can::CanId own_id{};
  Scenario scenario{Scenario::Full};
  MonitorConfig monitor{};
  can::BitController::Config controller{};
  bool defense_enabled{true};
  /// Also police extended (29-bit) frames whose base ID could beat our
  /// standard ID — an extension beyond the paper's CAN 2.0A scope.
  bool guard_extended{true};
};

class MichiCanNode : public can::CanNode {
 public:
  MichiCanNode(std::string name, const IvnConfig& ivn,
               MichiCanNodeConfig cfg);

  void attach_to(can::WiredAndBus& bus);

  /// The ECU's regular CAN controller (enqueue application traffic here).
  [[nodiscard]] can::BitController& controller() noexcept { return ctrl_; }
  [[nodiscard]] const can::BitController& controller() const noexcept {
    return ctrl_;
  }
  [[nodiscard]] const BitMonitor& monitor() const noexcept { return monitor_; }
  [[nodiscard]] const DetectionFsm& fsm() const noexcept { return fsm_; }
  [[nodiscard]] const mcu::PioController& pio() const noexcept { return pio_; }
  [[nodiscard]] can::CanId own_id() const noexcept { return cfg_.own_id; }

  // --- CanNode -------------------------------------------------------------
  void tick(sim::BitTime now) override;
  [[nodiscard]] sim::BitLevel tx_level() override;
  void on_bus_bit(sim::BitLevel bus) override;
  [[nodiscard]] sim::BitTime next_activity(sim::BitTime now) const override;
  void on_idle_skip(sim::BitTime count) override;
  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  std::string name_;
  MichiCanNodeConfig cfg_;
  DetectionFsm fsm_;
  DetectionFsm ext_fsm_;
  mcu::PioController pio_;
  can::BitController ctrl_;
  BitMonitor monitor_;
  sim::BitTime now_{0};
};

}  // namespace mcan::core
