// pm2sim -- tasklets: deferred execution on a chosen core.
//
// Modelled on Linux tasklets as the paper (Sec. 4.2, [12]) uses them
// through Marcel: schedule(t, core) queues t for execution on that core;
// the core runs it at its next progression opportunity (idle tick for idle
// cores, timer tick for busy ones). A tasklet runs in hook context: it must
// not block, and its serialization against other library activity relies on
// try-lock patterns ("the complex locking mechanism involved when a tasklet
// is invoked" whose cost Fig. 9 measures).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simthread/scheduler.hpp"

namespace pm2::piom {

class TaskletEngine;

class Tasklet {
 public:
  using Fn = std::function<void(mth::HookContext&)>;

  explicit Tasklet(Fn fn, std::string name = "tasklet")
      : fn_(std::move(fn)), name_(std::move(name)) {}

  Tasklet(const Tasklet&) = delete;
  Tasklet& operator=(const Tasklet&) = delete;

  const std::string& name() const { return name_; }

  /// True while queued for execution (Linux semantics: re-scheduling a
  /// scheduled tasklet is a no-op).
  bool scheduled() const { return scheduled_; }

  std::uint64_t runs() const { return runs_; }

 private:
  friend class TaskletEngine;
  Fn fn_;
  std::string name_;
  bool scheduled_ = false;
  std::uint64_t runs_ = 0;
};

class TaskletEngine {
 public:
  explicit TaskletEngine(mth::Scheduler& sched);
  ~TaskletEngine();

  TaskletEngine(const TaskletEngine&) = delete;
  TaskletEngine& operator=(const TaskletEngine&) = delete;

  /// Queue @p t for execution on @p core. Charges the scheduling cost
  /// (queue insertion + inter-core signalling) to the current context.
  /// No-op if already scheduled.
  void schedule(Tasklet* t, int core);

  bool pending(int core) const {
    return !queues_[static_cast<std::size_t>(core)].empty();
  }

  std::uint64_t executed() const { return executed_; }

 private:
  void drain(mth::HookContext& ctx);
  bool all_empty() const {
    for (const auto& q : queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  mth::Scheduler& sched_;
  std::vector<std::deque<Tasklet*>> queues_;
  mach::CacheLine queue_line_;
  int idle_hook_id_ = -1;
  int timer_hook_id_ = -1;
  std::uint64_t executed_ = 0;
  obs::Counter m_executed_;  ///< (pioman, <machine>, tasklet_runs)
};

}  // namespace pm2::piom
