#include "src/core/sat.h"

#include "src/arch/check.h"

namespace sat {

namespace {

SystemConfig MakeConfig(bool share_ptps, bool share_tlb, bool two_mb,
                        bool copy_ptes) {
  SystemConfig config;
  config.vm.share_ptps = share_ptps;
  config.vm.share_tlb_global = share_tlb;
  config.vm.copy_zygote_code_ptes_at_fork = copy_ptes;
  config.mapping_policy =
      two_mb ? MappingPolicy::kTwoMbAligned : MappingPolicy::kOriginal;
  return config;
}

SystemConfig MakeHugeConfig() {
  // The translation-reach configuration: the full shared design plus the
  // promotion daemon and eager zygote-code sections.
  SystemConfig config = MakeConfig(true, true, false, false);
  config.huge = true;
  return config;
}

SystemConfig MakeNumaConfig() {
  // The numaPTE-vs-sharing configuration: the full shared design on a
  // two-node four-core machine with numad replicating hot PTPs.
  SystemConfig config = MakeConfig(true, true, false, false);
  config.num_cores = 4;
  config.num_nodes = 2;
  config.pt_placement = PtPlacement::kReplicate;
  return config;
}

}  // namespace

const std::vector<NamedSystemConfig>& NamedConfigs() {
  static const std::vector<NamedSystemConfig>* registry =
      new std::vector<NamedSystemConfig>{
          {"stock", MakeConfig(false, false, false, false)},
          {"stock-2mb", MakeConfig(false, false, true, false)},
          {"shared-ptp", MakeConfig(true, false, false, false)},
          {"shared-ptp-2mb", MakeConfig(true, false, true, false)},
          {"shared-ptp-tlb", MakeConfig(true, true, false, false)},
          {"shared-ptp-tlb-2mb", MakeConfig(true, true, true, false)},
          {"copied-ptes", MakeConfig(false, false, false, true)},
          {"huge", MakeHugeConfig()},
          {"numa", MakeNumaConfig()},
      };
  return *registry;
}

SystemConfig ConfigByName(std::string_view key) {
  const std::optional<SystemConfig> config = TryConfigByName(key);
  SAT_CHECK(config.has_value() && "unknown config key");
  return *config;
}

std::optional<SystemConfig> TryConfigByName(std::string_view key) {
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    if (entry.key == key) {
      return entry.config;
    }
  }
  return std::nullopt;
}

std::string NamedConfigKeyList() {
  std::string list;
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    if (!list.empty()) {
      list += ", ";
    }
    list += entry.key;
  }
  return list;
}

System::System(const SystemConfig& config)
    : name_(config.Name()),
      zygote_system_(std::make_unique<ZygoteSystem>(config)) {}

}  // namespace sat
