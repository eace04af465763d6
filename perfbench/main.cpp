// pm2bench -- pm2sim's two-clock benchmark.
//
//   pm2bench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans-out FILE]
//
// A run repeats episodes of one workload for S host seconds. The first K
// episodes (the workload's canonical set, seeded from --seed) always run;
// later episodes cycle through the same K inputs, and each repeat must
// reproduce its canonical virtual results exactly. Virtual metrics come from
// the canonical set, so they are a pure function of the seed; host metrics
// use every episode of the run. Host times are CPU times: of the whole
// process for the run phase, of the constructing thread for set-up. The
// end-to-end host metrics are scaled to a reference host speed, measured
// by a calibration kernel run next to every episode (calibrate.hpp).
//
// --trace 0 prints the end-to-end metrics. --trace 1 interleaves untraced
// and traced episodes (metrics registry, flow tracer and the benchmark's own
// spans on), checks that tracing leaves every virtual result unchanged, and
// prints the per-layer metrics. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is non-zero if any output check failed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pm2bench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (!(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (a.trace != 0 && a.trace != 1) return false;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty set.
template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(v[std::min(i, v.size() - 1)]);
}

template <class T>
double median(const std::vector<T>& v) {
  return percentile(v, 50);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Cluster constructions timed for setup_s before every episode.
constexpr int kSetupReps = 4;
/// The calibration kernel runs before every episode, at least once and
/// otherwise for about this share of the previous run phase's CPU time.
constexpr double kCalibrationShare = 0.05;
constexpr int kMaxCalibrationReps = 32;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Clock {
 public:
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Correctness bookkeeping shared by both modes.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< messages not delivered intact
  std::uint64_t mismatches = 0;  ///< determinism checks that failed

  void account(const EpisodeResult& r) {
    attempted += r.attempted;
    failed += r.attempted - std::min(r.attempted, r.intact);
  }
  void expect_same(std::uint64_t a, std::uint64_t b, const char* what,
                   int episode) {
    if (a == b) return;
    ++mismatches;
    std::fprintf(stderr, "pm2bench: %s differs (episode %d)\n", what,
                 episode);
  }
  bool ok() const { return failed == 0 && mismatches == 0; }
};

/// Delivered nmad messages per host CPU second of the run phase (per layer,
/// unscaled).
struct Rate {
  double msgs = 0, seconds = 0;

  void add(const EpisodeResult& r) {
    msgs += static_cast<double>(r.nm_msgs);
    seconds += r.run_cpu_s;
  }
  double total() const { return ratio(msgs, seconds); }
};

/// The end-to-end host metrics. The run is cut into blocks of about one
/// CPU second of run phase. Each block's times are scaled by the host speed
/// the calibration kernel measured in the same block (calibrate.hpp), and
/// each metric is the median over blocks. Blocks weigh host time equally,
/// unlike a median over episodes, which over-counts fast stretches (more
/// episodes fit into a fast second).
class HostBlocks {
 public:
  static constexpr double kBlockSeconds = 1.0;

  struct Block {
    double msgs = 0, run_s = 0;
    std::vector<double> run_ms, setup_s, calib_s;
    /// Reference over measured speed: below 1 on a slow stretch.
    double scale() const { return kCalibrationReferenceS / median(calib_s); }
  };

  void add(const EpisodeResult& r, const std::vector<double>& setup,
           const std::vector<double>& calib_s) {
    open_.msgs += static_cast<double>(r.nm_msgs);
    open_.run_s += r.run_cpu_s;
    open_.run_ms.push_back(r.run_cpu_s * 1e3);
    open_.setup_s.insert(open_.setup_s.end(), setup.begin(), setup.end());
    open_.calib_s.insert(open_.calib_s.end(), calib_s.begin(), calib_s.end());
    if (open_.run_s >= kBlockSeconds) {
      done_.push_back(std::move(open_));
      open_ = {};
    }
  }

  /// Median over blocks of @p f(block); the partial block stands in for a
  /// run shorter than one block.
  template <class F>
  double median_of(F f) const {
    std::vector<double> v;
    for (const Block& b : done_) v.push_back(f(b));
    if (v.empty() && !open_.calib_s.empty()) v.push_back(f(open_));
    return median(v);
  }
  std::size_t blocks() const { return done_.size(); }

 private:
  Block open_;
  std::vector<Block> done_;
};

/// The virtual clock's view of the canonical set.
struct Canonical {
  std::vector<std::int64_t> vlat, makespan, sendrecv, allreduce;
  std::array<std::vector<std::int64_t>, 5> flow;
  Counters c;
  std::uint64_t msgs = 0, pool_hits = 0, pool_misses = 0;
  std::size_t registrations = 0;
  int nodes = 1;
  std::vector<std::uint64_t> vdigest, cdigest;

  void add(const EpisodeResult& r) {
    vlat.insert(vlat.end(), r.vlat_ns.begin(), r.vlat_ns.end());
    makespan.push_back(r.vmakespan_ns);
    sendrecv.insert(sendrecv.end(), r.sendrecv_vns.begin(),
                    r.sendrecv_vns.end());
    allreduce.insert(allreduce.end(), r.allreduce_vns.begin(),
                     r.allreduce_vns.end());
    for (std::size_t i = 0; i < flow.size(); ++i) {
      flow[i].insert(flow[i].end(), r.flow_vns[i].begin(), r.flow_vns[i].end());
    }
    c += r.c;
    msgs += r.nm_msgs;
    pool_hits += r.pool_hits;
    pool_misses += r.pool_misses;
    registrations = std::max(registrations, r.registrations);
    nodes = r.nodes;
    vdigest.push_back(r.vdigest);
    cdigest.push_back(r.cdigest);
  }
};

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it is not inherited across exec from a larger parent.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// bsp_hybrid runs on 2 host workers; its virtual results must not depend
/// on that. Re-run canonical episode 0 on one worker (untimed).
void check_workers(const Workload& w, const Args& a, const Canonical& canon,
                   Checks& checks) {
  if (w.workers <= 1) return;
  const EpisodeResult r =
      run_episode(w, episode_seed(a.seed, 0), 1, nullptr, 0);
  checks.expect_same(r.vdigest, canon.vdigest[0],
                     "virtual results at 1 vs 2 workers", 0);
}

std::vector<Metric> run_end_to_end(const Workload& w, const Args& a,
                                   Checks& checks, std::FILE* text) {
  // Set-up is timed on back-to-back constructions before every episode:
  // an episode's own constructor runs on caches its predecessor's run phase
  // left cold, which moves its time by up to 3x (it is the traced
  // cluster.ctor_ms). Spreading the samples over the whole run, like the
  // run phases and the calibration kernel, lets all three see the same
  // host speed.
  Canonical canon;
  HostBlocks host;
  int calib_reps = 1;
  const Clock clock;
  int k = 0;
  for (;; ++k) {
    if (k >= w.canonical && clock.elapsed() >= a.seconds) break;
    const int ck = k % w.canonical;
    const std::vector<double> setup = setup_times(w, kSetupReps);
    std::vector<double> calib;
    for (int i = 0; i < calib_reps; ++i) calib.push_back(calibration_kernel_s());
    const EpisodeResult r = run_episode(w, episode_seed(a.seed, ck), w.workers,
                                        nullptr, static_cast<std::uint32_t>(k));
    calib_reps = std::clamp(
        static_cast<int>(kCalibrationShare * r.run_cpu_s / median(calib)), 1,
        kMaxCalibrationReps);
    checks.account(r);
    if (k < w.canonical) {
      canon.add(r);
    } else {
      checks.expect_same(r.vdigest, canon.vdigest[static_cast<std::size_t>(ck)],
                         "repeated episode", k);
    }
    host.add(r, setup, calib);
  }
  check_workers(w, a, canon, checks);

  using Block = HostBlocks::Block;
  const double setup_s = host.median_of(
      [](const Block& b) { return median(b.setup_s) * b.scale(); });
  const double msgs_per_s = host.median_of(
      [](const Block& b) { return ratio(b.msgs, b.run_s * b.scale()); });
  const double run_ms = host.median_of(
      [](const Block& b) { return median(b.run_ms) * b.scale(); });

  const double attempted = static_cast<double>(checks.attempted);
  const double failed_ratio = ratio(static_cast<double>(checks.failed), attempted);
  std::fprintf(text, "%s seed=%llu episodes=%d (canonical %d) blocks=%zu "
               "vlat samples=%zu failed_ratio=%.6g\n",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed), k, w.canonical,
               host.blocks(), canon.vlat.size(), failed_ratio);
  std::fprintf(
      text, "host speed scale %.4f; unscaled setup_s %.6g, "
      "sim_msgs_per_host_s %.6g, host_ms_p50 %.6g\n",
      host.median_of([](const Block& b) { return b.scale(); }),
      host.median_of([](const Block& b) { return median(b.setup_s); }),
      host.median_of([](const Block& b) { return ratio(b.msgs, b.run_s); }),
      host.median_of([](const Block& b) { return median(b.run_ms); }));
  return {
      {"setup_s", setup_s, "s"},
      {"sim_msgs_per_host_s", msgs_per_s, "msgs/s"},
      {"host_ms_p50", run_ms, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"vlat_us_p50", percentile(canon.vlat, 50) / 1e3, "us"},
      {"vlat_us_p99", percentile(canon.vlat, 99) / 1e3, "us"},
      {"vmakespan_us", median(canon.makespan) / 1e3, "us"},
      {"delivered_ratio", 1.0 - failed_ratio, "ratio"},
  };
}

std::vector<Metric> run_traced(const Workload& w, const Args& a,
                               Checks& checks, std::FILE* text) {
  SpanLog spans(250000);
  Canonical canon;
  std::vector<std::uint64_t> untraced_digest;
  Rate rate_untraced, rate_traced;
  double events = 0;  // executed by the untraced episodes
  const Clock clock;
  int k = 0;
  for (;; ++k) {
    if (k >= w.canonical && clock.elapsed() >= a.seconds) break;
    const int ck = k % w.canonical;
    const std::uint64_t seed = episode_seed(a.seed, ck);
    // Paired and interleaved: the untraced twin of every traced episode.
    const EpisodeResult u = run_episode(w, seed, w.workers, nullptr,
                                        static_cast<std::uint32_t>(2 * k));
    const EpisodeResult t = run_episode(w, seed, w.workers, &spans,
                                        static_cast<std::uint32_t>(2 * k + 1));
    checks.account(u);
    checks.account(t);
    checks.expect_same(t.vdigest, u.vdigest, "traced vs untraced", k);
    if (k < w.canonical) {
      canon.add(t);
      untraced_digest.push_back(u.vdigest);
    } else {
      const auto i = static_cast<std::size_t>(ck);
      checks.expect_same(u.vdigest, untraced_digest[i], "repeated episode", k);
      checks.expect_same(t.cdigest, canon.cdigest[i],
                         "repeated traced counters", k);
    }
    rate_untraced.add(u);
    rate_traced.add(t);
    events += static_cast<double>(u.c.events);
  }
  check_workers(w, a, canon, checks);

  // Host-clock spans: per-call latencies and per-phase self times.
  const std::vector<Span> all = spans.collect();
  const std::vector<std::int64_t> self = self_times(all);
  std::map<SpanKind, std::vector<std::int64_t>> dur;
  std::vector<std::int64_t> run_self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    dur[all[i].kind].push_back(all[i].end_ns - all[i].start_ns);
    if (all[i].kind == SpanKind::kRun) run_self.push_back(self[i]);
  }
  if (!a.spans_out.empty()) spans.write_csv(a.spans_out);

  const Counters& c = canon.c;
  const double msgs = static_cast<double>(canon.msgs);
  auto per_msg = [&](double v) { return ratio(v, msgs); };
  auto d = [](auto v) { return static_cast<double>(v); };
  const char* seg[] = {"pack", "submit", "wire", "unpack", "notify"};

  std::fprintf(text, "%s seed=%llu traced pairs=%d spans=%zu dropped=%llu\n",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed), k, all.size(),
               static_cast<unsigned long long>(spans.dropped()));
  std::vector<Metric> m = {
      {"simcore.events_per_msg", per_msg(d(c.events)), "events/msg"},
      {"simcore.host_ns_per_event",
       ratio(rate_untraced.seconds * 1e9, events), "ns"},
      {"simcore.windows_per_msg", per_msg(d(c.windows)), "windows/msg"},
      {"simcore.cross_events_per_msg", per_msg(d(c.cross_events)),
       "events/msg"},
      {"simthread.ctx_switches_per_msg", per_msg(d(c.ctx_switches)),
       "switches/msg"},
      {"simthread.vcore_busy_frac", ratio(d(c.busy_vns), d(c.capacity_vns)),
       "ratio"},
      {"simthread.vhook_frac", ratio(d(c.hook_vns), d(c.capacity_vns)),
       "ratio"},
      {"sync.lock_cycles_per_msg", per_msg(d(c.lock_cycles)), "cycles/msg"},
      {"sync.contention_ratio", ratio(d(c.lock_cont), d(c.lock_acq)), "ratio"},
      {"sync.hold_vns_per_msg", per_msg(d(c.lock_hold_vns)), "ns/msg"},
      {"simnet.poll_hit_ratio",
       ratio(d(c.polls_hit), d(c.polls_hit + c.polls_empty)), "ratio"},
      {"simnet.wire_bytes_per_msg", per_msg(d(c.wire_bytes)), "B/msg"},
      {"simnet.pool_hit_ratio",
       ratio(d(canon.pool_hits), d(canon.pool_hits + canon.pool_misses)),
       "ratio"},
      {"nmad.progress_passes_per_msg", per_msg(d(c.progress_passes)),
       "passes/msg"},
      {"nmad.isend_host_ns_p50", median(dur[SpanKind::kIsend]), "ns"},
      {"nmad.irecv_host_ns_p50", median(dur[SpanKind::kIrecv]), "ns"},
      {"nmad.packets_per_msg", per_msg(d(c.packets_rx)), "packets/msg"},
      {"nmad.unexpected_ratio", ratio(d(c.unexpected), d(c.chunks_rx)),
       "ratio"},
      {"nmad.rdv_per_msg", per_msg(d(c.rdv)), "rdv/msg"},
      {"nmad.copies_per_msg", per_msg(d(c.copies)), "copies/msg"},
  };
  for (std::size_t i = 0; i < canon.flow.size(); ++i) {
    m.push_back({std::string("nmad.flow.") + seg[i] + "_vns_p50",
                 median(canon.flow[i]), "ns"});
  }
  std::vector<Metric> rest = {
      {"pioman.passes_per_msg", per_msg(d(c.pioman_passes)), "passes/msg"},
      {"pioman.skip_ratio", ratio(d(c.pioman_skipped), d(c.pioman_passes)),
       "ratio"},
      {"madmpi.sendrecv_vus_p50", median(canon.sendrecv) / 1e3, "us"},
      {"madmpi.allreduce_vus_p50", median(canon.allreduce) / 1e3, "us"},
      {"simmachine.line_transfers_per_msg", per_msg(d(c.line_transfers)),
       "transfers/msg"},
      {"obs.registrations_per_node", ratio(d(canon.registrations), canon.nodes),
       "counters"},
      {"obs.trace_overhead_ratio",
       ratio(rate_untraced.total(), rate_traced.total()), "ratio"},
      {"cluster.ctor_ms", median(dur[SpanKind::kCtor]) / 1e6, "ms"},
      {"cluster.run_ms", median(dur[SpanKind::kRun]) / 1e6, "ms"},
      {"cluster.run_self_ms", median(run_self) / 1e6, "ms"},
      {"cluster.dtor_ms", median(dur[SpanKind::kDtor]) / 1e6, "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

}  // namespace
}  // namespace pm2bench

int main(int argc, char** argv) {
  using namespace pm2bench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: pm2bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "pm2bench: unknown workload '%s' (known:",
                 a.workload.c_str());
    for (const auto& x : all_workloads()) {
      std::fprintf(stderr, " %s", std::string(x.name).c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }

  Checks checks;
  const std::vector<Metric> metrics = a.trace == 0
                                          ? run_end_to_end(*w, a, checks, stdout)
                                          : run_traced(*w, a, checks, stdout);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed + checks.mismatches));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return checks.ok() ? 0 : 1;
}
