// pm2sim -- execution contexts: who is currently consuming CPU, and how.
//
// Code that charges virtual time (locks, NIC drivers, PIOMan, NewMadeleine)
// runs in one of two contexts:
//
//  * a *thread* context -- inside a simulated thread; charging time suspends
//    the fiber until the virtual clock catches up, and blocking is allowed;
//  * a *hook* context -- inside a scheduler hook (idle loop, context-switch
//    hook, timer tick) or a tasklet; there is no thread to suspend, so costs
//    accumulate and are applied by the scheduler afterwards, and blocking is
//    forbidden (the paper, Sec. 4.2: "usual locking mechanisms cannot be
//    used in this context").
//
// The active context is reachable through ExecContext::current() so that
// shared primitives work identically in both worlds.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "simcore/partition.hpp"
#include "simcore/time.hpp"
#include "simmachine/machine.hpp"

namespace pm2::mth {

/// What one idle pass did, kept so that the scheduler can replay further
/// passes of a quiet node without running them as engine events (the idle
/// fast-forward, see Scheduler::idle_tick and DESIGN.md).
///
/// A *dry* pass changes no simulated state. It only charges CPU time,
/// moves cache lines (lock words) to its core and advances counters. The
/// journal keeps exactly those three things:
///  * the lines the pass touched, recorded by ExecContext::touch;
///  * its charge net of line transfers, set by seal();
///  * counter steps, recorded by each site that advances a counter.
/// Every idle hook must vouch() for its share of the pass; any site that
/// did something a replay cannot repeat spoil()s the journal.
class DryJournal {
 public:
  /// Re-applies one site's counter effects of a dry pass at virtual @p now.
  using Step = void (*)(void* site, sim::Time now);

  void clear() {
    steps_.clear();
    lines_.clear();
    transfer_cost_ = 0;
    fixed_cost_ = 0;
    vouches_ = 0;
    spoiled_ = false;
  }

  void add_step(Step fn, void* site) { steps_.push_back({fn, site}); }
  void add_line(mach::CacheLine* line, sim::Time cost) {
    transfer_cost_ += cost;
    // Later touches of a line within one pass are free (same core).
    if (std::find(lines_.begin(), lines_.end(), line) == lines_.end()) {
      lines_.push_back(line);
    }
  }
  void vouch() { ++vouches_; }
  void spoil() { spoiled_ = true; }

  /// Close the record of a pass that consumed @p consumed in total.
  void seal(sim::Time consumed) { fixed_cost_ = consumed - transfer_cost_; }

  /// True if each of @p hooks idle hooks vouched and nothing spoiled.
  bool proves_dry(std::size_t hooks) const {
    return !spoiled_ && vouches_ == hooks;
  }

  /// Charge of a replay on @p core, with the lines where they are now.
  /// Read-only.
  sim::Time price(const mach::Machine& m, int core) const {
    sim::Time t = fixed_cost_;
    for (const mach::CacheLine* l : lines_) t += m.peek_line(*l, core);
    return t;
  }

  /// Upper bound of price() on any core.
  sim::Time max_price(const mach::Machine& m) const {
    return fixed_cost_ + static_cast<sim::Time>(lines_.size()) *
                             m.max_line_transfer();
  }

  /// Replay one pass on @p core at virtual @p now: move the lines (and
  /// count their transfers) and advance the counters. Returns its charge,
  /// equal to price() just before.
  sim::Time replay(mach::Machine& m, int core, sim::Time now) const {
    sim::Time t = fixed_cost_;
    for (mach::CacheLine* l : lines_) t += m.touch_line(*l, core);
    for (const auto& s : steps_) s.fn(s.site, now);
    return t;
  }

 private:
  struct Entry {
    Step fn;
    void* site;
  };
  std::vector<Entry> steps_;
  std::vector<mach::CacheLine*> lines_;
  sim::Time transfer_cost_ = 0;
  sim::Time fixed_cost_ = 0;
  std::size_t vouches_ = 0;
  bool spoiled_ = false;
};

class ExecContext {
 public:
  virtual ~ExecContext();

  /// Consume @p t nanoseconds of CPU on this context's core.
  virtual void charge(sim::Time t) = 0;

  /// True if the context may block (semaphores, condition waits).
  virtual bool can_block() const = 0;

  /// The core this context executes on.
  virtual int core() const = 0;

  /// The node this context executes on.
  virtual mach::Machine& machine() const = 0;

  /// Access a tagged shared cache line: charges the inter-core transfer
  /// cost (if any) and retags the line to this core.
  void touch(mach::CacheLine& line) {
    const sim::Time cost = machine().touch_line(line, core());
    if (dry_journal != nullptr) dry_journal->add_line(&line, cost);
    charge(cost);
  }

  /// Set only on the HookContext of an idle pass that the scheduler may
  /// fast-forward: sites with effects record them here (see DryJournal).
  DryJournal* dry_journal = nullptr;

  /// simsan actor cache (see simsan/context.hpp): the interned actor id
  /// for this context, valid while san_epoch matches the analyzer's epoch.
  /// Epoch 0 never matches, so fresh contexts intern lazily on first use.
  std::uint32_t san_actor = 0;
  std::uint32_t san_epoch = 0;

  /// The context active right now; asserts that one exists.
  static ExecContext& current() {
    assert(current_ && "no execution context active");
    return *current_;
  }

  /// The active context or nullptr (engine/main context).
  static ExecContext* current_or_null() { return current_; }

  /// RAII activation of a context around a stretch of host code.
  class Activation {
   public:
    explicit Activation(ExecContext* ctx) : prev_(current_) { current_ = ctx; }
    ~Activation() { current_ = prev_; }
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    ExecContext* prev_;
  };

 private:
  // constinit + initial-exec keep every access a plain %fs-relative load:
  // fibers read this from ucontext stacks under ASan/TSan, where the lazy
  // TLS-init guard and __tls_get_addr paths are not reliable.
  PM2SIM_TLS_FAST static thread_local constinit ExecContext* current_;
};

/// Accumulating context for hooks and tasklets: charge() adds to a counter
/// that the scheduler turns into core-busy time once the hook returns.
class HookContext final : public ExecContext {
 public:
  HookContext(mach::Machine& machine, int core)
      : machine_(machine), core_(core) {}

  void charge(sim::Time t) override {
    assert(t >= 0);
    consumed_ += t;
  }
  bool can_block() const override { return false; }
  int core() const override { return core_; }
  mach::Machine& machine() const override { return machine_; }

  sim::Time consumed() const { return consumed_; }
  void reset() { consumed_ = 0; }

  /// Run @p fn with this context active; returns time consumed by it.
  template <typename Fn>
  sim::Time run(Fn&& fn) {
    const sim::Time before = consumed_;
    Activation act(this);
    fn();
    return consumed_ - before;
  }

 private:
  mach::Machine& machine_;
  int core_;
  sim::Time consumed_ = 0;
};

}  // namespace pm2::mth
