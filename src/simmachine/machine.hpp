// pm2sim -- a simulated node: cores, caches, and the per-node cost model.
//
// Machine is passive: it describes hardware and prices operations. The
// thread scheduler (src/simthread) animates its cores; NICs (src/simnet)
// attach to it.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "simcore/time.hpp"
#include "simmachine/cost_book.hpp"
#include "simmachine/topology.hpp"

namespace pm2::mach {

/// Ownership tag for one logical cache line.
///
/// Shared objects whose ping-ponging between cores matters (locks,
/// completion flags, queue heads) embed a CacheLine; each access through
/// Machine::touch_line() charges the transfer cost implied by the last
/// owner and retags the line. This is the entire memory model — deliberately
/// minimal, but sufficient to reproduce the affinity effects of Fig. 8.
struct CacheLine {
  int owner_core = -1;  ///< -1: not resident anywhere yet (first touch free)
};

/// One simulated node.
class Machine {
 public:
  Machine(sim::Engine& engine, std::string name, CacheTopology topology,
          CostBook costs);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Engine& engine() { return engine_; }
  const sim::Engine& engine() const { return engine_; }
  const std::string& name() const { return name_; }
  /// name() interned as a metrics node label, once per machine: the node
  /// id of every instrument registered for this machine.
  obs::LabelId metric_node() const { return metric_node_; }
  /// This node's EventTag owner id (sim::Engine::add_owner): every event
  /// the node's scheduler, NICs and sync primitives schedule carries it.
  std::int32_t event_owner() const { return event_owner_; }
  sim::EventTag event_tag() const { return sim::EventTag::node(event_owner_); }
  const CacheTopology& topology() const { return topology_; }
  const CostBook& costs() const { return costs_; }
  int num_cores() const { return topology_.num_cores(); }

  /// Cost for @p core to obtain a line currently owned by core @p from
  /// (0 if same core or not yet resident). A table lookup.
  sim::Time line_transfer_cost(int from, int to) const {
    if (from < 0) return 0;
    return transfer_cost_[static_cast<std::size_t>(from * num_cores() + to)];
  }

  /// Charge model for an access to a tagged shared line from @p core:
  /// returns the transfer cost and retags the line to @p core.
  sim::Time touch_line(CacheLine& line, int core) {
    assert(core >= 0 && core < num_cores());
    const sim::Time cost = line_transfer_cost(line.owner_core, core);
    if (cost > 0) {
      ++line_transfers_;
      line_transfer_time_ += cost;
    }
    line.owner_core = core;
    return cost;
  }

  /// Read-only probe: what would touch_line() cost, without retagging.
  sim::Time peek_line(const CacheLine& line, int core) const {
    return line_transfer_cost(line.owner_core, core);
  }

  /// The largest line_transfer_cost() between any two cores.
  sim::Time max_line_transfer() const { return max_line_transfer_; }

  /// Diagnostics: total number of inter-core line transfers so far.
  std::uint64_t line_transfers() const { return line_transfers_; }

  /// Diagnostics: total virtual time spent in line transfers.
  sim::Time line_transfer_time() const { return line_transfer_time_; }

 private:
  sim::Engine& engine_;
  std::string name_;
  obs::LabelId metric_node_;
  std::int32_t event_owner_;
  CacheTopology topology_;
  CostBook costs_;
  /// line_transfer_cost() for every (from, to) core pair, row-major.
  std::vector<sim::Time> transfer_cost_;
  sim::Time max_line_transfer_ = 0;
  std::uint64_t line_transfers_ = 0;
  sim::Time line_transfer_time_ = 0;
};

}  // namespace pm2::mach
