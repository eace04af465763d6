// pm2sim -- cost-modeled spinlock.
//
// The paper (Sec. 3.1) uses spinlocks for all of NewMadeleine's critical
// sections because they are "a few microseconds at most": for such short
// sections an active wait beats a context switch. One uncontended
// acquire/release cycle is calibrated at 70 ns (35 + 35), matching the
// paper's measurement.
//
// Contention is modelled faithfully but without event storms: a contended
// acquirer parks in a busy-spin (its core stays occupied and is accounted
// busy) and the releaser hands the lock over, charging the loser one
// re-check period plus the cache-line transfer between the two cores.
#pragma once

#include <deque>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "simmachine/machine.hpp"
#include "simsan/simsan.hpp"
#include "simthread/scheduler.hpp"

namespace pm2::sync {

class SpinLock {
 public:
  /// @p kind is the lock's name as an interned metrics name id
  /// (obs::MetricsRegistry::name_id): its three instruments
  /// (sync, <machine>, <name>.acquisitions / .contentions / .hold_ns) are
  /// derived from it by integer lookup, with no string work.
  SpinLock(mth::Scheduler& sched, obs::LabelId kind);
  /// The same, interning @p name first.
  explicit SpinLock(mth::Scheduler& sched, std::string_view name = "spinlock");

  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  /// Acquire. If contended, the caller actively spins (no context switch);
  /// contended acquisition therefore requires a thread context. Hooks and
  /// tasklets must use try_lock() instead, as the paper prescribes.
  void lock();

  /// One attempt (one RMW on the lock line); never spins. Any context.
  bool try_lock();

  /// Release; hands off to the oldest spinner if any.
  void unlock();

  bool held() const { return held_; }
  const std::string& name() const { return *name_; }

  /// Diagnostics.
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contentions() const { return contentions_; }

 private:
  struct Waiter {
    mth::Thread* t;
    sim::Time park_start;
  };

  /// @p blocking: the caller was prepared to wait for the lock (lock(), not
  /// try_lock()) -- simsan only draws lock-order edges for those.
  void note_acquired(bool blocking) {
    ++acquisitions_;
    m_acquisitions_.inc();
    if (obs::MetricsRegistry::active() != nullptr) {
      acquired_at_ = sched_.engine().now();
    }
    if (san::Analyzer::on()) san_acquired(blocking);
  }
  void san_acquired(bool blocking);
  void san_released();
  /// Counter effects of one try_lock()/unlock() cycle in a dry idle pass
  /// (a mth::DryJournal step).
  static void note_dry_cycle(void* self, sim::Time now);

  mth::Scheduler& sched_;
  const std::string* name_;  ///< the interned label (process lifetime)
  mach::CacheLine line_;
  bool held_ = false;
  mth::Thread* granted_ = nullptr;  ///< direct-handoff recipient
  std::deque<Waiter> spinners_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contentions_ = 0;
  // Registry instruments, labeled (sync, <machine>, <lock name>.*).
  obs::Counter m_acquisitions_;
  obs::Counter m_contentions_;
  obs::Counter m_hold_ns_;
  sim::Time acquired_at_ = -1;  ///< virtual hold-time start (registry only)
  san::SlotTag san_tag_;        ///< simsan lock slot cache
};

/// RAII guard, analogous to std::lock_guard.
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.lock(); }
  ~SpinGuard() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace pm2::sync
