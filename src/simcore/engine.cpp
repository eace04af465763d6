#include "simcore/engine.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <utility>

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

EventHandle Engine::schedule_in_order(Time when, EventQueue::Callback cb,
                                      EventTag tag, std::uint64_t order) {
  Partition& p = part(active_partition());
  assert(when >= p.now && "schedule_in_order in the past");
  return p.queue.schedule_in_order(when, std::move(cb), tag, order);
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
  if (!p.dormant.empty()) wake_for_head(p);
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

bool Engine::make_dormant(std::int32_t owner, Dormant& node) {
  Partition& p = part(active_partition());
  if (p.run_limit == kNoRunAhead || stopped()) return false;
  Dormant*& slot = dormant_.at(static_cast<std::size_t>(owner));
  assert(slot == nullptr && "node is already dormant");
  slot = &node;
  p.dormant.push_back(owner);
  return true;
}

void Engine::wake_for_head(Partition& p) {
  const EventQueue::Head h = p.queue.head();
  if (h.owner == EventTag::kNoOwner) {
    wake_all(active_partition(), h.when, h.order);
  } else {
    wake_owner(active_partition(), h.owner, h.when, h.order);
  }
}

void Engine::wake_owner(int idx, std::int32_t owner, Time when,
                        std::uint64_t order) {
  Dormant* node =
      std::exchange(dormant_[static_cast<std::size_t>(owner)], nullptr);
  if (node == nullptr) return;
  std::erase(part(idx).dormant, owner);
  PartitionScope scope(*this, idx);
  node->catch_up(when, order);
  node->wake();
}

void Engine::wake_all(int idx, Time when, std::uint64_t order) {
  // In dormancy order, which is deterministic for any worker count.
  const auto& dormant = part(idx).dormant;
  while (!dormant.empty()) wake_owner(idx, dormant.front(), when, order);
}

// The last window ran every event of the partition before window_end (or,
// if it stopped early, before the head). Per tick, the ticks whose
// predecessor pass ran there were armed before this drain, and the rest
// after it: a cross event joins the heap here, so it ties after the former
// and before the latter. The nodes it reaches wake with exactly the former
// armed; the other dormant nodes catch up to the same point, and their next
// passes count in T_min as their ticks would.
void Engine::settle_dormant(int idx) {
  Partition& d = part(idx);
  d.dormant_next = kTimeInfinity;
  if (d.dormant.empty()) return;
  Time when = d.window_end;
  std::uint64_t order = 0;
  if (!d.queue.empty()) {
    const EventQueue::Head h = d.queue.head();
    if (h.when < when) {
      when = h.when;
      order = h.order;
    }
  }
  for (const CrossEvent& e : d.inbox_scratch) {
    if (e.tag.owner == EventTag::kNoOwner) {
      wake_all(idx, when, order);
      return;
    }
    wake_owner(idx, e.tag.owner, when, order);
  }
  PartitionScope scope(*this, idx);
  for (const std::int32_t owner : d.dormant) {
    d.dormant_next = std::min(
        d.dormant_next,
        dormant_[static_cast<std::size_t>(owner)]->catch_up(when, order));
  }
}

void Engine::wake_after_run(Time deadline) {
  for (int i = 0; i < num_partitions(); ++i) {
    Partition& p = part(i);
    p.dormant_next = kTimeInfinity;
    wake_all(i, stopped() || deadline == kTimeInfinity ? p.now : deadline + 1,
             0);
  }
}

void Engine::run() {
  stopped_.store(false, std::memory_order_relaxed);
  if (num_partitions() == 1) {
    Partition& p = part(0);
    RunAheadScope run_ahead(p, kTimeInfinity);
    for (;;) {
      while (!stopped() && step_partition(p)) {
      }
      if (p.dormant.empty()) return;
      // Only dormant nodes are left (or stop() was called): their ticks go
      // back into the heap and run as events, as they would have without
      // dormancy.
      wake_all(0, p.now, 0);
      if (stopped()) return;
    }
  }
  if (workers_ > 1) {
    run_windows_parallel(kTimeInfinity);
  } else {
    run_windows(kTimeInfinity);
  }
  wake_after_run(kTimeInfinity);
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
    for (;;) {
      while (!stopped() && p.queue.next_time() <= deadline &&
             step_partition(p)) {
      }
      if (stopped() || deadline != kTimeInfinity || p.dormant.empty()) break;
      wake_all(0, p.now, 0);  // would drain: see run()
    }
    wake_after_run(deadline);
    if (!stopped() && p.now < deadline) p.now = deadline;
    return;
  }
  if (workers_ > 1) {
    run_windows_parallel(deadline);
  } else {
    run_windows(deadline);
  }
  wake_after_run(deadline);
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
  settle_dormant(dst);
  for (auto& e : scratch) {
    assert(e.when >= d.now && "cross event arrived in the past");
    d.queue.schedule(e.when, std::move(e.cb), e.tag);
  }
  scratch.clear();
}

void Engine::run_window(int idx, Time tmin, Time horizon, Time deadline) {
  Partition& p = part(idx);
  p.window_floor = tmin;
  p.window_end = std::min(horizon - 1, deadline) + 1;
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
      tmin = std::min(tmin, next_time(part(p)));
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
        lm = std::min(lm, next_time(part(p)));
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
