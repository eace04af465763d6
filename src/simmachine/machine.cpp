#include "simmachine/machine.hpp"

#include <cassert>
#include <stdexcept>

namespace pm2::mach {

Machine::Machine(sim::Engine& engine, std::string name, CacheTopology topology,
                 CostBook costs)
    : engine_(engine),
      name_(std::move(name)),
      metric_node_(obs::MetricsRegistry::node_id(name_)),
      topology_(std::move(topology)),
      costs_(costs) {}

sim::Time Machine::line_transfer_cost(int from, int to) const {
  if (from < 0 || from == to) return 0;
  switch (topology_.domain(from, to)) {
    case CacheDomain::kSameCore: return 0;
    case CacheDomain::kSharedL2: return costs_.line_shared_l2;
    case CacheDomain::kSameChip: return costs_.line_same_chip;
    case CacheDomain::kOtherChip: return costs_.line_other_chip;
  }
  return 0;
}

sim::Time Machine::touch_line(CacheLine& line, int core) {
  assert(core >= 0 && core < num_cores());
  const sim::Time cost = line_transfer_cost(line.owner_core, core);
  if (cost > 0) {
    ++line_transfers_;
    line_transfer_time_ += cost;
  }
  line.owner_core = core;
  return cost;
}

sim::Time Machine::peek_line(const CacheLine& line, int core) const {
  return line_transfer_cost(line.owner_core, core);
}

}  // namespace pm2::mach
