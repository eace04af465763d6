// pm2sim -- NewMadeleine public types and configuration.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simcore/time.hpp"

namespace pm2::nm {

/// Message tag: matches sends to receives within one gate (peer pair).
using Tag = std::uint64_t;

/// Wildcard receive tag: matches any incoming message on the gate
/// (MPI_ANY_TAG equivalent). Never valid as a SEND tag.
inline constexpr Tag kAnyTag = ~Tag{0};

/// One segment of a scatter/gather list (iovec equivalents).
struct IoSlice {
  void* base = nullptr;
  std::size_t len = 0;
};
struct ConstIoSlice {
  const void* base = nullptr;
  std::size_t len = 0;

  ConstIoSlice() = default;
  ConstIoSlice(const void* b, std::size_t l) : base(b), len(l) {}
  ConstIoSlice(const IoSlice& s) : base(s.base), len(s.len) {}  // NOLINT
};

/// How the library protects its shared state (paper Sec. 3).
enum class LockMode {
  kNone,    ///< no locking: single-threaded baseline ("No locking", Fig. 3)
  kCoarse,  ///< one library-wide spinlock (Sec. 3.1)
  kFine,    ///< per-list locks: collect / per-driver / matching (Sec. 3.2)
};

/// How waiting functions wait (paper Sec. 3.3).
enum class WaitMode {
  kBusy,       ///< poll until completion
  kPassive,    ///< block on a scheduler primitive
  kFixedSpin,  ///< spin for a fixed budget, then block [Karlin et al.]
};

/// Who makes communication progress (paper Sec. 3.3 / 4).
enum class ProgressMode {
  kAppDriven,       ///< only application calls (isend/irecv/wait) progress
  kPiomanHooks,     ///< + PIOMan polls from idle/switch/timer hooks
  kPollThread,      ///< a dedicated progression thread on poll_core (Fig. 8)
  kTaskletOffload,  ///< submission deferred to a tasklet on poll_core (Fig. 9)
  kIdleCoreOffload, ///< submission picked up by idle cores' hooks (Fig. 9)
};

/// Which optimization strategy arranges packets (paper Sec. 2, Fig. 1).
enum class StrategyKind {
  kDefault,  ///< FIFO, one message per packet
  kAggreg,   ///< aggregate small messages into one packet
  kSplit,    ///< aggregate + split large messages across rails (multirail)
};

const char* to_string(LockMode m);
const char* to_string(WaitMode m);
const char* to_string(ProgressMode m);
const char* to_string(StrategyKind k);

/// Per-core (per-node) library configuration.
struct Config {
  LockMode lock = LockMode::kFine;

  /// Number of independent communication endpoints (channels) this library
  /// instance exposes -- the scalable-endpoints/VCI design from the
  /// follow-on literature. 1 (default) is the paper's single shared
  /// library instance, byte-identical to the historical behavior. With
  /// N > 1, the collect lists, tag-matching tables and per-rail transfer
  /// lists are instantiated N times; sends and exact-tag receives route to
  /// endpoint `tag % endpoints`, so threads using distinct tags share no
  /// locked state. Must be in [1, 255] (the endpoint id travels in 8 bits
  /// of the chunk header).
  int endpoints = 1;

  /// Number of independent RX completion queues per NIC (multi-queue
  /// rails). 1 (default) is the classic single completion queue, with all
  /// endpoints draining through one serialized poll path. With M > 1,
  /// arriving packets are steered RSS-style by their wire-format endpoint
  /// id into ring `ep % M`, and each endpoint's progress drains its own
  /// ring with no shared lock. Must be in [1, 256].
  int rx_queues = 1;

  /// How wait() waits. A passive waiter never progresses itself:
  /// completion comes from PIOMan hooks, a poll thread, another thread's
  /// progress, or the application calling Core::progress() -- which is why
  /// kPassive stays legal with kAppDriven. nm::Cluster rejects kPassive
  /// where nothing can drain a receive: with kIdleCoreOffload (its hooks
  /// only submit), and with kTaskletOffload unless
  /// ClusterConfig::pioman_hooks is set.
  WaitMode wait = WaitMode::kBusy;
  ProgressMode progress = ProgressMode::kAppDriven;
  StrategyKind strategy = StrategyKind::kAggreg;

  /// Spin budget before blocking under WaitMode::kFixedSpin (Sec. 3.3
  /// suggests "for instance 5 us").
  sim::Time fixed_spin_budget = sim::microseconds(5);

  /// Core the progression thread / offload tasklets live on (kPollThread,
  /// kTaskletOffload). -1 = unbound.
  int poll_core = -1;

  /// Messages larger than this use the rendezvous protocol.
  std::size_t rdv_threshold = std::size_t{32} * 1024;

  /// Maximum aggregated packet payload (strategy kAggreg/kSplit).
  std::size_t aggreg_max = 4096;

  /// Minimum message size worth splitting across rails (kSplit).
  std::size_t split_min = std::size_t{16} * 1024;

  /// Fixed per-call bookkeeping cost of the public API.
  sim::Time api_cost = 50;

  /// Optimization-layer CPU costs: per packet arranged / per chunk placed.
  sim::Time strategy_packet_cost = 60;
  sim::Time strategy_chunk_cost = 40;

  /// Cap on packets one arrangement round may stage (bounds the work done
  /// in a single progression pass).
  std::size_t max_packets_per_round = 8;
};

}  // namespace pm2::nm
