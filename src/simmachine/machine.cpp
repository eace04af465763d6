#include "simmachine/machine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pm2::mach {

Machine::Machine(sim::Engine& engine, std::string name, CacheTopology topology,
                 CostBook costs)
    : engine_(engine),
      name_(std::move(name)),
      metric_node_(obs::MetricsRegistry::node_id(name_)),
      event_owner_(engine.add_owner()),
      topology_(std::move(topology)),
      costs_(costs) {
  const int n = num_cores();
  transfer_cost_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      sim::Time cost = 0;
      switch (a == b ? CacheDomain::kSameCore : topology_.domain(a, b)) {
        case CacheDomain::kSameCore: cost = 0; break;
        case CacheDomain::kSharedL2: cost = costs_.line_shared_l2; break;
        case CacheDomain::kSameChip: cost = costs_.line_same_chip; break;
        case CacheDomain::kOtherChip: cost = costs_.line_other_chip; break;
      }
      transfer_cost_[static_cast<std::size_t>(a * n + b)] = cost;
      max_line_transfer_ = std::max(max_line_transfer_, cost);
    }
  }
}



}  // namespace pm2::mach
