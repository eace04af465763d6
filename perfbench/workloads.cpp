#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <string>

#include "madmpi/madmpi.hpp"
#include "obs/metrics.hpp"
#include "simnet/buffer_pool.hpp"
#include "sync/barrier.hpp"

namespace pm2bench {

using namespace pm2;

namespace {

// --- seeded inputs ------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return splitmix(s_); }
  /// Uniform in [lo, hi].
  std::uint64_t in(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

/// Every message is an 8-byte virtual send stamp followed by a body cut
/// from this per-episode random byte pool at a key-dependent offset, so
/// the receiver can re-derive and compare every byte.
constexpr std::size_t kStamp = sizeof(sim::Time);

class Pattern {
 public:
  Pattern(std::uint64_t seed, std::size_t bytes) : bytes_(bytes) {
    Rng rng(seed ^ 0x5bd1e995ull);
    for (std::size_t i = 0; i < bytes; i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(bytes_.data() + i, &v, std::min<std::size_t>(8, bytes - i));
    }
  }
  /// Body for message @p key of @p len bytes (len <= size / 2).
  const std::uint8_t* body(std::uint64_t key, std::size_t len) const {
    const std::uint64_t span = bytes_.size() - len + 1;
    std::uint64_t s = key;
    return bytes_.data() + splitmix(s) % span;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

void fill(std::uint8_t* buf, sim::Time stamp, const Pattern& p,
          std::uint64_t key, std::size_t len) {
  std::memcpy(buf, &stamp, kStamp);
  std::memcpy(buf + kStamp, p.body(key, len), len);
}

/// What one node's application threads observed. Only that node's fibers
/// touch it, and a node's fibers all run on one host thread.
struct NodeLog {
  std::vector<std::int64_t> vlat, sendrecv, allreduce;
  std::uint64_t intact = 0;
  sim::Time start = std::numeric_limits<sim::Time>::max();
  sim::Time finish = 0;

  /// Verify a received message and record its one-way virtual latency.
  void received(sim::Time now, const std::uint8_t* buf, std::size_t got,
                const Pattern& p, std::uint64_t key, std::size_t len) {
    sim::Time sent = -1;
    if (got >= kStamp) std::memcpy(&sent, buf, kStamp);
    if (got != kStamp + len) {
      report(key, "received %zu bytes, expected %zu", got, kStamp + len);
    } else if (std::memcmp(buf + kStamp, p.body(key, len), len) != 0) {
      report(key, "payload differs from the %zu bytes sent", len);
    } else if (sent < 0 || sent > now) {
      report(key, "send stamp %lld outside [0, %lld]",
             static_cast<long long>(sent), static_cast<long long>(now));
    } else {
      vlat.push_back(now - sent);
      ++intact;
    }
  }

 private:
  /// The first few failures of a process go to stderr, for diagnosis.
  template <class... A>
  static void report(std::uint64_t key, const char* fmt, A... args) {
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) >= 8) return;
    char what[160];
    std::snprintf(what, sizeof(what), fmt, args...);
    std::fprintf(stderr, "pm2bench: message %llu: %s\n",
                 static_cast<unsigned long long>(key), what);
  }
};

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<std::int64_t>& v) {
    add(v.size());
    for (auto x : v) add(static_cast<std::uint64_t>(x));
  }
};

}  // namespace

// --- episodes -------------------------------------------------------------------

class Episode {
 public:
  Episode(int nodes, Probe& probe)
      : probe_(probe), logs_(static_cast<std::size_t>(nodes)) {}
  virtual ~Episode() = default;
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  virtual void spawn(nm::Cluster& world) = 0;
  virtual sim::Time cap() const = 0;
  virtual std::uint64_t attempted() const = 0;
  /// Virtual duration of the traffic phase.
  virtual sim::Time makespan() const {
    sim::Time lo = std::numeric_limits<sim::Time>::max(), hi = 0;
    for (const auto& l : logs_) {
      lo = std::min(lo, l.start);
      hi = std::max(hi, l.finish);
    }
    return hi - lo;
  }

  /// Merge the node logs in node order (deterministic for any worker
  /// count). A capped episode counts every undelivered message as failed.
  void finish(EpisodeResult& r) const {
    r.attempted = attempted();
    for (const auto& l : logs_) {
      r.intact += l.intact;
      r.vlat_ns.insert(r.vlat_ns.end(), l.vlat.begin(), l.vlat.end());
      r.sendrecv_vns.insert(r.sendrecv_vns.end(), l.sendrecv.begin(),
                            l.sendrecv.end());
      r.allreduce_vns.insert(r.allreduce_vns.end(), l.allreduce.begin(),
                             l.allreduce.end());
      r.vend_ns = std::max(r.vend_ns, l.finish);
    }
    r.vmakespan_ns = r.capped ? cap() : makespan();
    if (r.capped) r.vend_ns = cap();
  }

 protected:
  NodeLog& log(int node) { return logs_[static_cast<std::size_t>(node)]; }
  const NodeLog& log(int node) const {
    return logs_[static_cast<std::size_t>(node)];
  }

  Probe& probe_;

 private:
  std::vector<NodeLog> logs_;
};

namespace {

// pingpong_eager: the paper's Fig. 3/7 regime -- one thread pair on two
// quad-core nodes, fine locking, busy waiting, app-driven progress. Every
// body is 1 B .. 2 KB, so every message is eager.
class Pingpong final : public Episode {
 public:
  static constexpr int kRoundTrips = 128;
  static constexpr std::size_t kMaxBody = 2048;

  Pingpong(std::uint64_t seed, Probe& probe)
      : Episode(2, probe), pattern_(seed, 2 * kMaxBody) {
    Rng rng(seed);
    for (auto& s : sizes_) s = rng.in(1, kMaxBody);
  }

  sim::Time cap() const override { return sim::milliseconds(50); }
  std::uint64_t attempted() const override { return 2 * kRoundTrips; }

  void spawn(nm::Cluster& w) override {
    w.spawn(0, [this, &w] { side(w, 0); }, "ping");
    w.spawn(1, [this, &w] { side(w, 1); }, "pong");
  }

 private:
  // Message 2i goes 0 -> 1 on tag 1; message 2i+1 goes back on tag 2.
  void side(nm::Cluster& w, int node) {
    auto& c = w.core(node);
    auto* g = w.gate(node, 1 - node);
    auto& eng = w.engine();
    NodeLog& l = log(node);
    std::vector<std::uint8_t> out(kStamp + kMaxBody), in(kStamp + kMaxBody);
    l.start = eng.now();
    for (int i = 0; i < kRoundTrips; ++i) {
      for (int leg = 0; leg < 2; ++leg) {
        const std::size_t m = static_cast<std::size_t>(2 * i + leg);
        const std::size_t len = sizes_[m];
        const nm::Tag tag = static_cast<nm::Tag>(1 + leg);
        if (leg == node) {
          fill(out.data(), eng.now(), pattern_, m, len);
          nm::Request* s = probe_.call(SpanKind::kIsend, [&] {
            return c.isend(g, tag, out.data(), kStamp + len);
          });
          probe_.call(SpanKind::kWait, [&] { c.wait(s); });
          c.release(s);
        } else {
          nm::Request* r = probe_.call(SpanKind::kIrecv, [&] {
            return c.irecv(g, tag, in.data(), in.size());
          });
          probe_.call(SpanKind::kWait, [&] { c.wait(r); });
          l.received(eng.now(), in.data(), r->received_length(), pattern_, m,
                     len);
          c.release(r);
        }
      }
    }
    l.finish = eng.now();
  }

  Pattern pattern_;
  std::array<std::size_t, 2 * kRoundTrips> sizes_{};
};

// senders64: BM_ConcurrentSenders/64/3's shape -- 64 sender threads on one
// dual quad-core node stream windowed isends to 64 receiver threads that
// pre-posted every irecv, one endpoint and RX queue per thread.
class Senders final : public Episode {
 public:
  static constexpr int kThreads = 64;
  static constexpr int kMsgs = 16;
  static constexpr std::size_t kWindow = 4;
  static constexpr std::size_t kMaxBody = 256;
  // Senders start after every receiver has posted its window (posting 16
  // irecvs per thread timeshares the node's eight cores).
  static constexpr sim::Time kSettle = sim::microseconds(kThreads * 5);

  Senders(std::uint64_t seed, Probe& probe)
      : Episode(2, probe), pattern_(seed, 2 * kMaxBody) {
    Rng rng(seed);
    for (auto& row : sizes_) {
      for (auto& s : row) s = rng.in(8, kMaxBody);
    }
    for (auto& o : offsets_) o = static_cast<sim::Time>(rng.in(0, 20000));
  }

  sim::Time cap() const override { return sim::milliseconds(10); }
  std::uint64_t attempted() const override { return kThreads * kMsgs; }
  sim::Time makespan() const override {
    return std::max(log(0).finish, log(1).finish) - kSettle;
  }

  void spawn(nm::Cluster& w) override {
    for (int t = 0; t < kThreads; ++t) {
      w.spawn(0, [this, &w, t] { sender(w, t); }, "sender");
      w.spawn(1, [this, &w, t] { receiver(w, t); }, "receiver");
    }
  }

 private:
  static std::uint64_t key(int t, int i) {
    return static_cast<std::uint64_t>(t * kMsgs + i);
  }

  void sender(nm::Cluster& w, int t) {
    auto& c = w.core(0);
    auto* g = w.gate(0, 1);
    auto& eng = w.engine();
    w.sched(0).sleep_for(kSettle + offsets_[static_cast<std::size_t>(t)]);
    std::vector<std::vector<std::uint8_t>> bufs(
        kMsgs, std::vector<std::uint8_t>(kStamp + kMaxBody));
    std::deque<nm::Request*> window;
    auto retire = [&] {
      nm::Request* r = window.front();
      probe_.call(SpanKind::kWait, [&] { c.wait(r); });
      c.release(r);
      window.pop_front();
    };
    for (int i = 0; i < kMsgs; ++i) {
      const std::size_t len = sizes_[static_cast<std::size_t>(t)]
                                    [static_cast<std::size_t>(i)];
      auto& buf = bufs[static_cast<std::size_t>(i)];
      fill(buf.data(), eng.now(), pattern_, key(t, i), len);
      window.push_back(probe_.call(SpanKind::kIsend, [&] {
        return c.isend(g, static_cast<nm::Tag>(t), buf.data(), kStamp + len);
      }));
      if (window.size() == kWindow) retire();
    }
    while (!window.empty()) retire();
    log(0).finish = std::max(log(0).finish, eng.now());
  }

  void receiver(nm::Cluster& w, int t) {
    auto& c = w.core(1);
    auto* g = w.gate(1, 0);
    auto& eng = w.engine();
    std::vector<std::vector<std::uint8_t>> bufs(
        kMsgs, std::vector<std::uint8_t>(kStamp + kMaxBody));
    std::vector<nm::Request*> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      auto& buf = bufs[static_cast<std::size_t>(i)];
      reqs.push_back(probe_.call(SpanKind::kIrecv, [&] {
        return c.irecv(g, static_cast<nm::Tag>(t), buf.data(), buf.size());
      }));
    }
    NodeLog& l = log(1);
    for (int i = 0; i < kMsgs; ++i) {
      nm::Request* r = reqs[static_cast<std::size_t>(i)];
      probe_.call(SpanKind::kWait, [&] { c.wait(r); });
      l.received(eng.now(), bufs[static_cast<std::size_t>(i)].data(),
                 r->received_length(), pattern_, key(t, i),
                 sizes_[static_cast<std::size_t>(t)]
                       [static_cast<std::size_t>(i)]);
      c.release(r);
    }
    l.finish = std::max(l.finish, eng.now());
  }

  Pattern pattern_;
  std::array<std::array<std::size_t, kMsgs>, kThreads> sizes_{};
  std::array<sim::Time, kThreads> offsets_{};
};

// bsp_hybrid: app_hybrid's BSP kernel at scale -- 32 nodes x 6 threads on 4
// cores each (oversubscribed), fine locking, passive waiting, PIOMan hooks.
// Per iteration: compute, a ring halo sendrecv in both directions (4 KB ..
// 128 KB, across the 32 KB rendezvous threshold), a node barrier, an
// allreduce, a node barrier.
class Bsp final : public Episode {
 public:
  static constexpr int kNodes = 32;
  static constexpr int kThreads = 6;
  static constexpr int kIters = 6;
  static constexpr std::size_t kMinHalo = 4 * 1024;
  static constexpr std::size_t kMaxHalo = 128 * 1024;
  static constexpr std::size_t kVec = 4;
  static constexpr sim::Time kCompute = sim::microseconds(40);

  Bsp(std::uint64_t seed, Probe& probe)
      : Episode(kNodes, probe), pattern_(seed, 2 * kMaxHalo) {
    Rng rng(seed);
    for (auto& it : halo_) {
      for (auto& node : it) {
        for (auto& s : node) s = rng.in(kMinHalo, kMaxHalo);
      }
    }
    // Integer-valued contributions: every summation order is exact.
    for (int it = 0; it < kIters; ++it) {
      for (int n = 0; n < kNodes; ++n) {
        for (std::size_t j = 0; j < kVec; ++j) {
          const double v = static_cast<double>(rng.in(0, 1u << 20));
          contrib_[it][n][j] = v;
          sums_[it][j] += v;
        }
      }
    }
  }

  sim::Time cap() const override { return sim::milliseconds(100); }
  std::uint64_t attempted() const override {
    return static_cast<std::uint64_t>(kIters) * kNodes * 3;  // 2 halos + 1 sum
  }

  void spawn(nm::Cluster& w) override {
    for (int n = 0; n < kNodes; ++n) {
      barriers_.push_back(
          std::make_unique<sync::Barrier>(w.sched(n), kThreads, "bsp"));
      for (int t = 0; t < kThreads; ++t) {
        w.spawn(n, [this, &w, n, t] { body(w, n, t); }, "bsp");
      }
    }
  }

 private:
  static std::uint64_t key(int it, int node, int dir) {
    return static_cast<std::uint64_t>((it * kNodes + node) * 2 + dir);
  }
  std::size_t halo(int it, int node, int dir) const {
    return halo_[static_cast<std::size_t>(it)][static_cast<std::size_t>(node)]
                [static_cast<std::size_t>(dir)];
  }

  void body(nm::Cluster& w, int n, int t) {
    madmpi::Comm comm(w, n);
    auto& sched = w.sched(n);
    auto& eng = w.engine();
    auto& barrier = *barriers_[static_cast<std::size_t>(n)];
    NodeLog& l = log(n);
    const int right = (n + 1) % kNodes, left = (n + kNodes - 1) % kNodes;
    std::vector<std::uint8_t> out, in;
    if (t < 2) {
      out.resize(kStamp + kMaxHalo);
      in.resize(kStamp + kMaxHalo);
    }
    l.start = std::min(l.start, eng.now());
    for (int it = 0; it < kIters; ++it) {
      sched.work(kCompute);
      if (t < 2) {
        // Thread 0 shifts right (tag 10), thread 1 shifts left (tag 11),
        // concurrently: thread-multiple access to one Comm.
        const int dst = t == 0 ? right : left, src = t == 0 ? left : right;
        const madmpi::Tag tag = static_cast<madmpi::Tag>(10 + t);
        const std::size_t len = halo(it, n, t);
        const sim::Time t0 = eng.now();
        fill(out.data(), t0, pattern_, key(it, n, t), len);
        const std::size_t got = probe_.call(SpanKind::kSendrecv, [&] {
          return comm.sendrecv(dst, tag, out.data(), kStamp + len, src, tag,
                               in.data(), in.size());
        });
        l.sendrecv.push_back(eng.now() - t0);
        l.received(eng.now(), in.data(), got, pattern_, key(it, src, t),
                   halo(it, src, t));
      }
      barrier.arrive_and_wait();
      if (t == 0) {
        auto vals = contrib_[static_cast<std::size_t>(it)]
                            [static_cast<std::size_t>(n)];
        const sim::Time t0 = eng.now();
        probe_.call(SpanKind::kAllreduce,
                    [&] { comm.allreduce_sum(vals.data(), kVec); });
        l.allreduce.push_back(eng.now() - t0);
        if (vals == sums_[static_cast<std::size_t>(it)]) ++l.intact;
      }
      barrier.arrive_and_wait();
    }
    l.finish = std::max(l.finish, eng.now());
  }

  Pattern pattern_;
  std::array<std::array<std::array<std::size_t, 2>, kNodes>, kIters> halo_{};
  std::array<std::array<std::array<double, kVec>, kNodes>, kIters> contrib_{};
  std::array<std::array<double, kVec>, kIters> sums_{};
  std::vector<std::unique_ptr<sync::Barrier>> barriers_;
};

nm::ClusterConfig pingpong_config() {
  nm::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.nm.lock = nm::LockMode::kFine;
  cfg.nm.wait = nm::WaitMode::kBusy;
  cfg.nm.progress = nm::ProgressMode::kAppDriven;
  return cfg;
}

nm::ClusterConfig senders_config() {
  nm::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.topology = mach::CacheTopology::dual_quad_core();
  cfg.nm.lock = nm::LockMode::kFine;
  cfg.endpoints = Senders::kThreads;
  cfg.rx_queues = Senders::kThreads;
  return cfg;
}

nm::ClusterConfig bsp_config() {
  nm::ClusterConfig cfg;
  cfg.nodes = Bsp::kNodes;
  cfg.nm.lock = nm::LockMode::kFine;
  cfg.nm.wait = nm::WaitMode::kPassive;
  cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
  cfg.partitions = 4;
  return cfg;
}

template <class E>
std::unique_ptr<Episode> make(std::uint64_t seed, Probe& probe) {
  return std::make_unique<E>(seed, probe);
}

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t reg_counter(const std::string& component,
                          const std::string& node, const std::string& name) {
  return obs::MetricsRegistry::global()
      .counter_value(component, node, name)
      .value_or(0);
}

void read_counters(nm::Cluster& w, bool traced, EpisodeResult& r) {
  Counters& c = r.c;
  auto& eng = w.engine();
  c.events = eng.events_executed();
  c.windows = eng.windows_executed();
  c.cross_events = eng.cross_events();
  for (int n = 0; n < w.num_nodes(); ++n) {
    const std::string node = w.machine(n).name();
    auto& sched = w.sched(n);
    c.ctx_switches += sched.context_switches();
    for (int k = 0; k < sched.num_cores(); ++k) {
      c.busy_vns += sched.core_busy_time(k);
      c.hook_vns += sched.core_hook_time(k);
    }
    c.capacity_vns += sched.num_cores() * r.vend_ns;
    auto& core = w.core(n);
    for (int e = 0; e < core.num_endpoints(); ++e) {
      c.lock_cycles += core.endpoint(e).locks().cycles();
      if (!traced) continue;
      // The spinlock names LockSet gives endpoint e's domains.
      const std::string prefix = e == 0 ? "nm" : "nm-ep" + std::to_string(e);
      std::vector<std::string> locks = {prefix + "-global",
                                        prefix + "-collect",
                                        prefix + "-matching"};
      for (int d = 0; d < core.num_rails(); ++d) {
        locks.push_back(prefix + "-driver" + std::to_string(d));
      }
      for (const auto& lk : locks) {
        c.lock_acq += reg_counter("sync", node, lk + ".acquisitions");
        c.lock_cont += reg_counter("sync", node, lk + ".contentions");
        c.lock_hold_vns += reg_counter("sync", node, lk + ".hold_ns");
      }
    }
    for (int d = 0; d < core.num_rails(); ++d) {
      const auto& nic = w.nic(n, d);
      c.polls_hit += nic.polls_hit();
      c.polls_empty += nic.polls_empty();
      c.wire_bytes += nic.bytes_sent();
    }
    const auto& st = core.stats();
    r.nm_msgs += st.recvs;
    c.progress_passes += st.progress_passes;
    c.packets_rx += st.packets_rx;
    c.chunks_rx += st.chunks_rx;
    c.unexpected += st.unexpected_chunks;
    c.rdv += st.rdv_handshakes;
    if (traced) c.copies += reg_counter("nmad", node, "data.copies");
    c.pioman_passes += w.pioman(n).passes();
    c.pioman_skipped += w.pioman(n).skipped_passes();
    c.line_transfers += w.machine(n).line_transfers();
  }
}

void read_flows(nm::Cluster& w, EpisodeResult& r) {
  const obs::FlowTracer* f = w.flow_trace();
  if (f == nullptr) return;
  for (std::uint64_t id : f->ids()) {
    const obs::FlowTracer::Flow* fl = f->find(id);
    if (fl == nullptr || !fl->complete()) continue;
    for (int i = 1; i < obs::kFlowStageCount; ++i) {
      r.flow_vns[static_cast<std::size_t>(i - 1)].push_back(fl->ts[i] -
                                                            fl->ts[i - 1]);
    }
  }
}

void digest(EpisodeResult& r) {
  Fnv v;
  v.add(r.attempted);
  v.add(r.intact);
  v.add(r.capped);
  v.add(r.vlat_ns);
  v.add(static_cast<std::uint64_t>(r.vmakespan_ns));
  v.add(static_cast<std::uint64_t>(r.vend_ns));
  v.add(r.sendrecv_vns);
  v.add(r.allreduce_vns);
  v.add(r.nm_msgs);
  const Counters& c = r.c;
  for (std::uint64_t x :
       {c.events, c.windows, c.cross_events, c.ctx_switches,
        static_cast<std::uint64_t>(c.busy_vns),
        static_cast<std::uint64_t>(c.hook_vns), c.lock_cycles, c.polls_hit,
        c.polls_empty, c.wire_bytes, c.progress_passes, c.packets_rx,
        c.chunks_rx, c.unexpected, c.rdv, c.pioman_passes, c.pioman_skipped,
        c.line_transfers}) {
    v.add(x);
  }
  r.vdigest = v.h;
  Fnv g;
  for (std::uint64_t x : {c.lock_acq, c.lock_cont, c.lock_hold_vns, c.copies}) {
    g.add(x);
  }
  for (const auto& seg : r.flow_vns) g.add(seg);
  r.cdigest = g.h;
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  events += o.events;
  windows += o.windows;
  cross_events += o.cross_events;
  ctx_switches += o.ctx_switches;
  busy_vns += o.busy_vns;
  hook_vns += o.hook_vns;
  capacity_vns += o.capacity_vns;
  lock_cycles += o.lock_cycles;
  lock_acq += o.lock_acq;
  lock_cont += o.lock_cont;
  lock_hold_vns += o.lock_hold_vns;
  polls_hit += o.polls_hit;
  polls_empty += o.polls_empty;
  wire_bytes += o.wire_bytes;
  progress_passes += o.progress_passes;
  packets_rx += o.packets_rx;
  chunks_rx += o.chunks_rx;
  unexpected += o.unexpected;
  rdv += o.rdv;
  copies += o.copies;
  pioman_passes += o.pioman_passes;
  pioman_skipped += o.pioman_skipped;
  line_transfers += o.line_transfers;
  return *this;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"pingpong_eager", 32, 1, pingpong_config(), make<Pingpong>},
      {"senders64", 6, 1, senders_config(), make<Senders>},
      {"bsp_hybrid", 24, 2, bsp_config(), make<Bsp>},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t episode_seed(std::uint64_t run_seed, int k) {
  std::uint64_t s = run_seed * 0x100000001b3ull + static_cast<std::uint64_t>(k);
  return splitmix(s);
}

std::vector<double> setup_times(const Workload& w, int reps) {
  nm::ClusterConfig cfg = w.config;
  cfg.workers = w.workers;
  // The constructor starts no host thread, so this thread's CPU time is all
  // of it; unlike wall time it leaves out the time other tenants hold the
  // CPU.
  std::make_unique<nm::Cluster>(cfg).reset();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    auto world = std::make_unique<nm::Cluster>(cfg);
    t.push_back(cpu_s(CLOCK_THREAD_CPUTIME_ID) - t0);
    world.reset();
  }
  return t;
}

EpisodeResult run_episode(const Workload& w, std::uint64_t seed, int workers,
                          SpanLog* spans, std::uint32_t episode_id) {
  const bool traced = spans != nullptr;
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(traced);
  auto& pool = net::BufferPool::global();
  EpisodeResult r;
  Probe probe{spans, episode_id, 0};
  ScopedSpan episode_span(spans, SpanKind::kEpisode, episode_id, 0);
  const std::uint64_t parent = episode_span.id();

  nm::ClusterConfig cfg = w.config;
  cfg.workers = workers;
  std::unique_ptr<Episode> ep = w.make(seed, probe);
  const std::uint64_t hits0 = pool.hits(), misses0 = pool.misses();

  std::unique_ptr<nm::Cluster> world;
  {
    ScopedSpan s(spans, SpanKind::kCtor, episode_id, parent);
    world = std::make_unique<nm::Cluster>(cfg);
  }
  r.nodes = world->num_nodes();
  r.registrations = reg.num_counters();
  if (traced) world->enable_flow_trace();

  {
    ScopedSpan s(spans, SpanKind::kSpawn, episode_id, parent);
    ep->spawn(*world);
  }

  const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
  {
    ScopedSpan s(spans, SpanKind::kRun, episode_id, parent);
    probe.run_span = s.id();
    world->engine().run_until(ep->cap());
  }
  r.run_cpu_s = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;

  if (world->trace_log() != nullptr) world->trace_log()->drain_now();
  for (int n = 0; n < world->num_nodes(); ++n) {
    if (world->sched(n).live_threads() != 0) r.capped = true;
  }
  ep->finish(r);
  read_counters(*world, traced, r);
  if (traced) read_flows(*world, r);
  r.pool_hits = pool.hits() - hits0;
  r.pool_misses = pool.misses() - misses0;
  digest(r);

  {
    ScopedSpan s(spans, SpanKind::kDtor, episode_id, parent);
    world.reset();
  }
  reg.set_enabled(false);
  return r;
}

}  // namespace pm2bench
