#include "simcore/engine.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <stdexcept>
#include <thread>

namespace pm2::sim {

Engine::Engine() {
  parts_.push_back(std::make_unique<Partition>());
  mail_.resize(1);
}

Engine::~Engine() = default;

Engine::PartitionScope::PartitionScope(Engine& engine, int p)
    : prev_(tls_partition) {
  assert(p >= 0 && p < engine.num_partitions() && "partition out of range");
  (void)engine;
  tls_partition = p;
}

void Engine::configure_partitions(int n, Time lookahead) {
  if (n < 1) {
    throw std::invalid_argument("Engine::configure_partitions: n must be >= 1");
  }
  if (num_partitions() != 1 || part(0).queue.total_scheduled() != 0) {
    throw std::logic_error(
        "Engine::configure_partitions: must be called at most once, before "
        "any event is scheduled");
  }
  if (n == 1) return;
  if (lookahead <= 0) {
    throw std::invalid_argument(
        "Engine::configure_partitions: lookahead must be positive");
  }
  lookahead_ = lookahead;
  parts_.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i < n; ++i) parts_.push_back(std::make_unique<Partition>());
  mail_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

void Engine::set_workers(int w) { workers_ = std::max(1, w); }

void Engine::set_mailbox_capacity(std::size_t cap) {
  mailbox_cap_ = std::max<std::size_t>(1, cap);
}

EventHandle Engine::schedule_at(Time when, EventQueue::Callback cb,
                                EventTag tag) {
  Partition& p = part(active_partition());
  if (when < p.now) {
    throw std::logic_error("Engine::schedule_at: time " + format_time(when) +
                           " is in the past (now = " + format_time(p.now) +
                           ")");
  }
  return p.queue.schedule(when, std::move(cb), tag);
}

EventHandle Engine::schedule_after(Time delay, EventQueue::Callback cb,
                                   EventTag tag) {
  assert(delay >= 0 && "negative delay");
  return schedule_at(now() + delay, std::move(cb), tag);
}

void Engine::schedule_cross(int dst, Time when, EventQueue::Callback cb,
                            EventTag tag) {
  const int src = active_partition();
  if (num_partitions() == 1 || dst == src) {
    schedule_at(when, std::move(cb), tag);
    return;
  }
  assert(dst >= 0 && dst < num_partitions() && "partition out of range");
  Partition& s = part(src);
  assert(when >= s.window_floor + lookahead_ &&
         "cross-partition event violates the lookahead contract");
  auto& box = mailbox(src, dst);
  box.push_back(CrossEvent{when, s.out_seq++, src, tag, std::move(cb)});
  ++s.cross_sent;
  if (box.size() >= mailbox_cap_ && !s.window_abort) {
    ++s.overflows;
    s.window_abort = true;
  }
}

bool Engine::cancel(EventHandle& h) {
  return h.queue_ != nullptr && h.queue_->cancel(h);
}

bool Engine::step_partition(Partition& p) {
  if (p.queue.empty()) return false;
  auto [when, cb] = p.queue.pop();
  assert(when >= p.now && "event queue went backwards");
  p.now = when;
  ++p.executed;
  cb();
  return true;
}

bool Engine::step() {
  // No RunAheadScope: step() executes exactly one event, so charges inside
  // it always go through the heap.
  assert(num_partitions() == 1 && "step() is single-partition only");
  return step_partition(part(0));
}

bool Engine::try_advance(Time when) {
  Partition& p = part(active_partition());
  if (when > p.run_limit || p.window_abort || stopped() ||
      when >= p.queue.next_time()) {
    return false;
  }
  assert(when >= p.now && "run-ahead went backwards");
  p.now = when;
  ++p.run_aheads;
  return true;
}

Time Engine::idle_horizon(std::int32_t owner) {
  Partition& p = part(active_partition());
  if (p.run_limit == kNoRunAhead || p.window_abort || stopped()) return p.now;
  const Time limit =
      p.run_limit == kTimeInfinity ? kTimeInfinity : p.run_limit + 1;
  return p.queue.next_time_bounding(owner, limit);
}

void Engine::run() {
  stopped_.store(false, std::memory_order_relaxed);
  if (num_partitions() == 1) {
    Partition& p = part(0);
    RunAheadScope run_ahead(p, kTimeInfinity);
    while (!stopped() && step_partition(p)) {
    }
    return;
  }
  if (workers_ > 1) {
    run_windows_parallel(kTimeInfinity);
  } else {
    run_windows(kTimeInfinity);
  }
  if (!stopped()) {
    // Clean drain: join the clocks so now() reports the cluster-wide finish
    // time from every partition's point of view.
    Time tmax = 0;
    for (auto& p : parts_) tmax = std::max(tmax, p->now);
    for (auto& p : parts_) p->now = tmax;
  }
}

void Engine::run_until(Time deadline) {
  stopped_.store(false, std::memory_order_relaxed);
  if (num_partitions() == 1) {
    Partition& p = part(0);
    RunAheadScope run_ahead(p, deadline);
    while (!stopped() && p.queue.next_time() <= deadline &&
           step_partition(p)) {
    }
    if (!stopped() && p.now < deadline) p.now = deadline;
    return;
  }
  if (workers_ > 1) {
    run_windows_parallel(deadline);
  } else {
    run_windows(deadline);
  }
  if (!stopped()) {
    for (auto& p : parts_) {
      if (p->now < deadline) p->now = deadline;
    }
  }
}

std::size_t Engine::pending_events() const {
  std::size_t n = 0;
  for (auto& p : parts_) n += p->queue.size();
  return n;
}

std::uint64_t Engine::events_executed() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->executed;
  return n;
}

std::uint64_t Engine::run_aheads() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->run_aheads;
  return n;
}

std::uint64_t Engine::elided_ticks() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->elided_ticks;
  return n;
}

std::uint64_t Engine::cross_events() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->cross_sent;
  return n;
}

std::uint64_t Engine::mailbox_overflows() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->overflows;
  return n;
}

Time Engine::window_horizon(Time tmin) const {
  return tmin > kTimeInfinity - lookahead_ ? kTimeInfinity : tmin + lookahead_;
}

void Engine::drain_mailboxes_for(int dst) {
  Partition& d = part(dst);
  auto& scratch = d.inbox_scratch;
  scratch.clear();
  const int n = num_partitions();
  for (int src = 0; src < n; ++src) {
    auto& box = mailbox(src, dst);
    for (auto& e : box) scratch.push_back(std::move(e));
    box.clear();
  }
  // Canonical merge order: time, then source partition, then per-source send
  // sequence. Independent of which host thread ran the sender and of the
  // drain's gather order, so the target heap's tie-break sequence -- and
  // with it the whole downstream schedule -- is reproducible.
  std::sort(scratch.begin(), scratch.end(),
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (auto& e : scratch) {
    assert(e.when >= d.now && "cross event arrived in the past");
    d.queue.schedule(e.when, std::move(e.cb), e.tag);
  }
  scratch.clear();
}

void Engine::run_window(int idx, Time tmin, Time horizon, Time deadline) {
  Partition& p = part(idx);
  p.window_floor = tmin;
  p.window_abort = false;
  const int prev = tls_partition;
  tls_partition = idx;
  {
    RunAheadScope run_ahead(p, std::min(horizon - 1, deadline));
    while (!p.window_abort) {
      const Time next = p.queue.next_time();
      if (next >= horizon || next > deadline) break;
      step_partition(p);
    }
  }
  tls_partition = prev;
}

void Engine::run_windows(Time deadline) {
  const int n = num_partitions();
  for (;;) {
    // Deliver everything the previous window posted before looking at the
    // heaps: T_min must see cross events too.
    for (int d = 0; d < n; ++d) drain_mailboxes_for(d);
    if (stopped()) break;
    Time tmin = kTimeInfinity;
    for (int p = 0; p < n; ++p) {
      tmin = std::min(tmin, part(p).queue.next_time());
    }
    if (tmin == kTimeInfinity || tmin > deadline) break;
    const Time horizon = window_horizon(tmin);
    ++windows_;
    for (int p = 0; p < n; ++p) run_window(p, tmin, horizon, deadline);
  }
}

void Engine::run_windows_parallel(Time deadline) {
  const int n = num_partitions();
  const int w = std::min(workers_, n);
  struct alignas(64) MinSlot {
    Time t = kTimeInfinity;
  };
  std::vector<MinSlot> local_min(static_cast<std::size_t>(w));
  std::barrier<> bar(w);

  // Partition p always runs on worker p % w, so a partition's fibers never
  // migrate between host threads within a run. Every worker recomputes the
  // same T_min from the shared slots after the barrier, so all of them take
  // the same break decision -- nobody can be left waiting on the barrier.
  auto worker = [&](int id) {
    for (;;) {
      Time lm = kTimeInfinity;
      for (int p = id; p < n; p += w) {
        drain_mailboxes_for(p);
        lm = std::min(lm, part(p).queue.next_time());
      }
      local_min[static_cast<std::size_t>(id)].t = lm;
      bar.arrive_and_wait();
      Time tmin = kTimeInfinity;
      for (int i = 0; i < w; ++i) {
        tmin = std::min(tmin, local_min[static_cast<std::size_t>(i)].t);
      }
      if (stopped() || tmin == kTimeInfinity || tmin > deadline) break;
      const Time horizon = window_horizon(tmin);
      if (id == 0) ++windows_;
      for (int p = id; p < n; p += w) run_window(p, tmin, horizon, deadline);
      bar.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(w - 1));
  for (int id = 1; id < w; ++id) threads.emplace_back(worker, id);
  worker(0);
  for (auto& t : threads) t.join();
}

}  // namespace pm2::sim
