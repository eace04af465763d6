#include "pioman/server.hpp"

#include <algorithm>
#include <cassert>

#include "simcore/trace.hpp"
#include "simsan/context.hpp"

namespace pm2::piom {

PollSource::~PollSource() = default;

namespace {
obs::LabelId list_lock_kind() {
  static const obs::LabelId kind = obs::MetricsRegistry::name_id("pioman-list");
  return kind;
}
}  // namespace

Server::Server(mth::Scheduler& sched)
    : sched_(sched), list_lock_(sched, list_lock_kind()) {
  static const obs::MetricName kPasses("pioman", "poll_passes");
  static const obs::MetricName kSkipped("pioman", "skipped_passes");
  static const obs::MetricName kInterval("pioman", "poll_interval_ns");
  auto& reg = obs::MetricsRegistry::global();
  const obs::LabelId node = sched_.machine().metric_node();
  m_passes_ = reg.counter(kPasses.at(node));
  m_skipped_passes_ = reg.counter(kSkipped.at(node));
  m_poll_interval_ns_ = reg.histogram(kInterval.at(node));
}

Server::~Server() { remove_hooks(); }

void Server::register_source(PollSource* src) {
  SIMSAN_ACCESS(san_sources_);
  sources_.push_back(src);
  notify_new_work();
}

void Server::unregister_source(PollSource* src) {
  SIMSAN_ACCESS(san_sources_);
  std::erase(sources_, src);
}

bool Server::has_pending(int core) const {
  if (poll_core_ >= 0 && core >= 0 && core != poll_core_) return false;
  for (const PollSource* s : sources_) {
    if (!s->pending()) continue;
    const int pref = s->preferred_core();
    if (pref >= 0 && core >= 0 && pref != core) continue;
    return true;
  }
  return false;
}

bool Server::dry_candidate() const {
  if (poll_core_ >= 0) return false;
  for (const PollSource* s : sources_) {
    if (s->preferred_core() >= 0 || !s->quiet()) return false;
  }
  return true;
}

void Server::note_pass(void* self, sim::Time now) {
  Server& s = *static_cast<Server*>(self);
  ++s.passes_;
  s.m_passes_.inc();
  if (obs::MetricsRegistry::active() != nullptr) {
    if (s.last_pass_at_ >= 0 && now > s.last_pass_at_) {
      s.m_poll_interval_ns_.observe(
          static_cast<std::uint64_t>(now - s.last_pass_at_));
    }
    s.last_pass_at_ = now;
  }
}

bool Server::poll_once(mth::ExecContext& ctx) {
  note_pass(this, sched_.engine().now());
  if (ctx.dry_journal != nullptr) ctx.dry_journal->add_step(&note_pass, this);
  // Internal request-list management (Fig. 6's overhead).
  ctx.charge(sched_.costs().pioman_pass);
  // The server's lists are protected by a lock that hook/tasklet contexts
  // may only try: skipping a pass is always safe (someone else is polling).
  if (!list_lock_.try_lock()) {
    ++skipped_passes_;
    m_skipped_passes_.inc();
    // A skipped pass proves nothing: the lock holder is mid-pass.
    if (ctx.dry_journal != nullptr) ctx.dry_journal->spoil();
    return false;
  }
  bool progressed = false;
  SIMSAN_ACCESS_RO(san_sources_);  // iteration is read-only, under list_lock_
  const int core = ctx.core();
  for (PollSource* s : sources_) {
    const int pref = s->preferred_core();
    if (pref >= 0 && pref != core) continue;
    if (s->poll(ctx)) progressed = true;
  }
  list_lock_.unlock();
  if (progressed) {
    // Unlink satisfied requests from the internal lists and signal waiters.
    ctx.charge(sched_.costs().pioman_completion);
  }
  return progressed;
}

void Server::enable_hooks() {
  if (hooks_enabled()) return;
  auto run = [this](mth::HookContext& hctx) {
    if (!has_pending(hctx.core())) return;
    poll_once(hctx);
  };
  // Idle passes vouch for a dry pass (mth::Hook): one that found the
  // sources quiet, made no progress, took the list lock, and left them
  // quiet. Quiet before and after pins the pass to the empty-poll path,
  // and with no core binding every core's pass is that same pass.
  auto idle_run = [this](mth::HookContext& hctx) {
    if (!has_pending(hctx.core())) return;
    mth::DryJournal* journal = hctx.dry_journal;
    const bool quiet = journal != nullptr && dry_candidate();
    const bool progressed = poll_once(hctx);
    if (quiet && !progressed && dry_candidate()) journal->vouch();
  };
  auto want = [this](int core) { return has_pending(core); };
  idle_hook_id_ = sched_.add_idle_hook(mth::Hook{idle_run, want});
  switch_hook_id_ = sched_.add_switch_hook(mth::Hook{run, nullptr});
  timer_hook_id_ = sched_.add_timer_hook(mth::Hook{run, nullptr});
  PM2_TRACE("pioman", kInfo, "hooks enabled (poll core binding: %d)",
            poll_core_);
}

void Server::remove_hooks() {
  if (!hooks_enabled()) return;
  sched_.remove_idle_hook(idle_hook_id_);
  sched_.remove_switch_hook(switch_hook_id_);
  sched_.remove_timer_hook(timer_hook_id_);
  idle_hook_id_ = switch_hook_id_ = timer_hook_id_ = -1;
}

}  // namespace pm2::piom
