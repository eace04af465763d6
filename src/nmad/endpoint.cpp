#include "nmad/endpoint.hpp"

#include "simthread/scheduler.hpp"

namespace pm2::nm {

namespace {
/// "nm" for endpoint 0, "nm-ep<id>" above it.
obs::LabelId lock_prefix(int id) {
  static const obs::LabelId ep = obs::MetricsRegistry::name_id("nm-ep");
  return id == 0 ? LockSet::default_prefix()
                 : obs::MetricsRegistry::indexed_name_id(
                       ep, static_cast<std::uint32_t>(id));
}
}  // namespace

Endpoint::Endpoint(mth::Scheduler& sched, const Config& cfg, int id,
                   std::string name, int max_rails, int home_partition)
    : id_(id),
      name_(std::move(name)),
      home_partition_(home_partition),
      // Endpoint 0 keeps the historical "nm-*" lock names; higher endpoints
      // suffix the prefix so lock metrics and simsan reports stay apart.
      locks_(sched, cfg.lock, max_rails, lock_prefix(id)),
      strategy_(Strategy::make(cfg.strategy)) {
  src_to_gate_.resize(static_cast<std::size_t>(max_rails));
  san_deferred_.set_name(name_ + ".deferred");
  if (cfg.endpoints > 1) {
    static const obs::MetricName kSends("nmad.ep", "sends");
    static const obs::MetricName kRecvs("nmad.ep", "recvs");
    static const obs::MetricName kSteals("nmad.ep", "steals");
    auto& reg = obs::MetricsRegistry::global();
    const obs::LabelId node = sched.machine().metric_node();
    m_sends_ = reg.counter(kSends.at(node, id));
    m_recvs_ = reg.counter(kRecvs.at(node, id));
    m_steals_ = reg.counter(kSteals.at(node, id));
  }
}

}  // namespace pm2::nm
