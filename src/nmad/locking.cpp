#include "nmad/locking.hpp"

#include <cassert>

#include "simsan/context.hpp"

namespace pm2::nm {

const char* to_string(LockMode m) {
  switch (m) {
    case LockMode::kNone: return "none";
    case LockMode::kCoarse: return "coarse";
    case LockMode::kFine: return "fine";
  }
  return "?";
}

const char* to_string(WaitMode m) {
  switch (m) {
    case WaitMode::kBusy: return "busy";
    case WaitMode::kPassive: return "passive";
    case WaitMode::kFixedSpin: return "fixed-spin";
  }
  return "?";
}

const char* to_string(ProgressMode m) {
  switch (m) {
    case ProgressMode::kAppDriven: return "app-driven";
    case ProgressMode::kPiomanHooks: return "pioman-hooks";
    case ProgressMode::kPollThread: return "poll-thread";
    case ProgressMode::kTaskletOffload: return "tasklet-offload";
    case ProgressMode::kIdleCoreOffload: return "idle-core-offload";
  }
  return "?";
}

const char* to_string(StrategyKind k) {
  switch (k) {
    case StrategyKind::kDefault: return "default";
    case StrategyKind::kAggreg: return "aggreg";
    case StrategyKind::kSplit: return "split";
  }
  return "?";
}

namespace {
/// Lock-name suffixes, interned once per process.
struct LockRoles {
  obs::LabelId global = obs::MetricsRegistry::name_id("-global");
  obs::LabelId collect = obs::MetricsRegistry::name_id("-collect");
  obs::LabelId matching = obs::MetricsRegistry::name_id("-matching");
  obs::LabelId driver = obs::MetricsRegistry::name_id("-driver");
};

const LockRoles& lock_roles() {
  static const LockRoles roles;
  return roles;
}
}  // namespace

obs::LabelId LockSet::default_prefix() {
  static const obs::LabelId nm = obs::MetricsRegistry::name_id("nm");
  return nm;
}

// Lock names are derived ids ("<prefix>-global", "<prefix>-driver<i>"):
// integer lookups once every label is interned.
LockSet::LockSet(mth::Scheduler& sched, LockMode mode, int num_drivers,
                 obs::LabelId prefix)
    : sched_(sched),
      mode_(mode),
      global_(sched,
              obs::MetricsRegistry::name_id(prefix, lock_roles().global)),
      collect_(sched,
               obs::MetricsRegistry::name_id(prefix, lock_roles().collect)),
      matching_(sched,
                obs::MetricsRegistry::name_id(prefix, lock_roles().matching)) {
  drivers_.reserve(static_cast<std::size_t>(num_drivers));
  for (int i = 0; i < num_drivers; ++i) {
    const obs::LabelId role = obs::MetricsRegistry::indexed_name_id(
        lock_roles().driver, static_cast<std::uint32_t>(i));
    drivers_.push_back(std::make_unique<sync::SpinLock>(
        sched, obs::MetricsRegistry::name_id(prefix, role)));
  }
}

sync::SpinLock* LockSet::resolve(Domain d) {
  switch (mode_) {
    case LockMode::kNone:
      return nullptr;
    case LockMode::kCoarse:
      if (library_held_ &&
          library_holder_ == static_cast<const void*>(
                                 mth::ExecContext::current_or_null())) {
        return nullptr;  // nested inside our own library-wide section
      }
      return &global_;
    case LockMode::kFine:
      break;
  }
  if (d == Domain::kCollect) return &collect_;
  if (d == Domain::kMatching) return &matching_;
  const int rail = static_cast<int>(d) - static_cast<int>(Domain::kDriver0);
  return drivers_.at(static_cast<std::size_t>(rail)).get();
}

void LockSet::lock(Domain d) {
  if (sync::SpinLock* l = resolve(d)) l->lock();
}

void LockSet::unlock(Domain d) {
  if (sync::SpinLock* l = resolve(d)) l->unlock();
}

bool LockSet::try_lock(Domain d) {
  sync::SpinLock* l = resolve(d);
  return l == nullptr || l->try_lock();
}

bool LockSet::library_locked_by_me() const {
  return library_held_ &&
         library_holder_ == static_cast<const void*>(
                                mth::ExecContext::current_or_null());
}

void LockSet::lock_library() {
  if (mode_ != LockMode::kCoarse) return;
  if (library_locked_by_me()) {
    ++library_depth_;
    return;
  }
  global_.lock();
  library_held_ = true;
  library_depth_ = 1;
  library_holder_ = mth::ExecContext::current_or_null();
}

void LockSet::unlock_library() {
  if (mode_ != LockMode::kCoarse) return;
  // Contract: only the context that locked the library may unlock it (the
  // release_library_all()/reacquire_library() window hands the lock over
  // wholesale, never piecemeal).
  if (!library_locked_by_me()) {
    if (san::violation("library-unlock-not-holder",
                       "unlock_library() by a context that does not hold "
                       "the library lock")) {
      return;
    }
    assert(library_held_ && "unlock_library without lock_library");
  }
  if (--library_depth_ > 0) return;
  library_held_ = false;
  library_holder_ = nullptr;
  global_.unlock();
}

bool LockSet::try_lock_library() {
  if (mode_ != LockMode::kCoarse) return true;
  if (library_locked_by_me()) {
    ++library_depth_;
    return true;
  }
  if (!global_.try_lock()) return false;
  library_held_ = true;
  library_depth_ = 1;
  library_holder_ = mth::ExecContext::current_or_null();
  return true;
}

int LockSet::release_library_all() {
  if (mode_ != LockMode::kCoarse || !library_locked_by_me()) return 0;
  const int depth = library_depth_;
  library_depth_ = 0;
  library_held_ = false;
  library_holder_ = nullptr;
  global_.unlock();
  return depth;
}

void LockSet::reacquire_library(int depth) {
  if (mode_ != LockMode::kCoarse || depth == 0) return;
  // Contract: a double reacquire (without an intervening release) would
  // self-deadlock on the global spinlock.
  if (library_locked_by_me()) {
    if (san::violation("library-double-reacquire",
                       "reacquire_library() while already holding the "
                       "library lock")) {
      library_depth_ += depth;
      return;
    }
    assert(false && "reacquire_library while already held");
  }
  global_.lock();
  library_held_ = true;
  library_depth_ = depth;
  library_holder_ = mth::ExecContext::current_or_null();
}

std::uint64_t LockSet::cycles() const {
  std::uint64_t n = global_.acquisitions() + collect_.acquisitions() +
                    matching_.acquisitions();
  for (const auto& d : drivers_) n += d->acquisitions();
  return n;
}

}  // namespace pm2::nm
