// Gate: building a world does no per-instrument string work.
//
// Builds the bsp_hybrid-shaped world (32 nodes x 4 cores, fine locking,
// PIOMan hooks, 4 partitions) twice. The first build interns every metric
// label; the second must find every instrument already registered (no
// counter, gauge or histogram added, no label interned) and hash at most
// one string per node -- its machine name, interned once per mach::Machine.
// Registration itself is integer-keyed, so any other string hash in the
// second build is construction work that scales with nodes x metrics.
#include <cstdint>
#include <cstdio>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"

using namespace pm2;

namespace {

constexpr int kNodes = 32;

nm::ClusterConfig bsp_shape() {
  nm::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.topology = mach::CacheTopology::quad_core();
  cfg.nm.lock = nm::LockMode::kFine;
  cfg.nm.wait = nm::WaitMode::kPassive;
  cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
  cfg.partitions = 4;
  return cfg;
}

struct Snapshot {
  std::size_t counters, gauges, histograms, labels;
  std::uint64_t registrations, label_hashes;
};

Snapshot snapshot() {
  const auto& reg = obs::MetricsRegistry::global();
  return {reg.num_counters(),   reg.num_gauges(),
          reg.num_histograms(), obs::MetricsRegistry::num_labels(),
          reg.registrations(),  obs::MetricsRegistry::label_hashes()};
}

}  // namespace

int main() {
  { nm::Cluster warm(bsp_shape()); }
  const Snapshot a = snapshot();
  { nm::Cluster again(bsp_shape()); }
  const Snapshot b = snapshot();

  const std::uint64_t regs = b.registrations - a.registrations;
  const std::uint64_t hashes = b.label_hashes - a.label_hashes;
  std::printf(
      "second build: %llu registrations (%.2f per node), %llu label hashes "
      "(%.2f per node), instruments %zu/%zu/%zu -> %zu/%zu/%zu, labels "
      "%zu -> %zu\n",
      static_cast<unsigned long long>(regs),
      static_cast<double>(regs) / kNodes,
      static_cast<unsigned long long>(hashes),
      static_cast<double>(hashes) / kNodes, a.counters, a.gauges,
      a.histograms, b.counters, b.gauges, b.histograms, a.labels, b.labels);

  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  check(b.counters == a.counters && b.gauges == a.gauges &&
            b.histograms == a.histograms,
        "re-building the world added instruments");
  check(b.labels == a.labels, "re-building the world interned new labels");
  check(hashes <= kNodes, "more than one label hash per node");
  check(regs > 0, "the world registered no instruments");
  return failures == 0 ? 0 : 1;
}
