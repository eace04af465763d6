// pm2bench -- the benchmark's three closed-loop workloads.
//
// Each episode builds a fresh nm::Cluster from the workload's fixed
// configuration, spawns the simulated application threads with inputs
// generated from the episode seed, runs the engine up to a virtual cap,
// verifies every delivered payload, and reads the layers' public counters
// before the cluster is destroyed. Only generated inputs reach the program.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "nmad/cluster.hpp"
#include "spans.hpp"

namespace pm2bench {

/// Per-episode tracing context handed to the application threads.
struct Probe {
  SpanLog* spans = nullptr;  ///< null: untraced episode
  std::uint32_t episode = 0;
  std::uint64_t run_span = 0;  ///< parent of every call made inside fibers

  template <class F>
  decltype(auto) call(SpanKind kind, F&& f) {
    ScopedSpan s(spans, kind, episode, run_span);
    return f();
  }
};

/// Layer counters of one episode, read through each layer's public API.
struct Counters {
  // simcore
  std::uint64_t events = 0, windows = 0, cross_events = 0;
  // simthread (virtual ns)
  std::uint64_t ctx_switches = 0;
  std::int64_t busy_vns = 0, hook_vns = 0, capacity_vns = 0;
  // sync: the nmad LockSets (cycles always on; the rest from the registry)
  std::uint64_t lock_cycles = 0, lock_acq = 0, lock_cont = 0, lock_hold_vns = 0;
  // simnet
  std::uint64_t polls_hit = 0, polls_empty = 0, wire_bytes = 0;
  // nmad
  std::uint64_t progress_passes = 0, packets_rx = 0, chunks_rx = 0,
                unexpected = 0, rdv = 0, copies = 0;
  // pioman
  std::uint64_t pioman_passes = 0, pioman_skipped = 0;
  // simmachine
  std::uint64_t line_transfers = 0;

  Counters& operator+=(const Counters& o);
};

struct EpisodeResult {
  // Correctness.
  std::uint64_t attempted = 0;  ///< app messages + allreduce results
  std::uint64_t intact = 0;     ///< delivered and verified byte for byte
  bool capped = false;          ///< hit the virtual cap with threads alive

  // Virtual clock (deterministic for a seed).
  std::vector<std::int64_t> vlat_ns;  ///< one-way latency per app message
  std::int64_t vmakespan_ns = 0;      ///< traffic phase, recorded by threads
  std::int64_t vend_ns = 0;           ///< last thread exit
  std::vector<std::int64_t> sendrecv_vns, allreduce_vns;
  std::uint64_t nm_msgs = 0;  ///< nmad messages delivered (all nodes)
  Counters c;
  std::array<std::vector<std::int64_t>, 5> flow_vns;  ///< traced only
  /// Hash of every virtual result and always-on counter.
  std::uint64_t vdigest = 0;
  /// Hash of the registry-gated counters (meaningful when traced).
  std::uint64_t cdigest = 0;

  // Host clock.
  double run_cpu_s = 0;  ///< run phase, CPU time of every thread
  std::uint64_t pool_hits = 0, pool_misses = 0;  ///< process-global deltas
  std::size_t registrations = 0;  ///< registry counters after ctor
  int nodes = 0;
};

class Episode;

struct Workload {
  std::string_view name;
  /// Canonical episodes per run: the virtual metrics come from exactly
  /// these, so they repeat for a seed no matter how fast the host is.
  int canonical;
  /// Host worker threads the measured episodes use.
  int workers;
  /// Cluster configuration; each run sets its worker count.
  pm2::nm::ClusterConfig config;
  std::unique_ptr<Episode> (*make)(std::uint64_t seed, Probe& probe);
};

const Workload* find_workload(std::string_view name);
const std::vector<Workload>& all_workloads();

/// Seed of canonical episode @p k of a run seeded @p run_seed.
std::uint64_t episode_seed(std::uint64_t run_seed, int k);

/// Host CPU seconds of each of @p reps back-to-back constructions of
/// @p w's cluster, after one untimed warm-up construction (each cluster is
/// destroyed, untimed, before the next is built).
std::vector<double> setup_times(const Workload& w, int reps);

/// Build, run, verify and tear down one episode. @p spans null = untraced
/// (the metrics registry and flow tracer are enabled only when traced).
EpisodeResult run_episode(const Workload& w, std::uint64_t seed, int workers,
                          SpanLog* spans, std::uint32_t episode_id);

}  // namespace pm2bench
