// pm2sim -- process-global metrics registry (the paper's measurement layer).
//
// Every quantity the paper tabulates -- lock acquisitions/contention,
// per-core context switches, PIOMan poll counts, NIC byte counters -- is
// registered here once at component construction and updated through cheap
// handles. The hot-path contract:
//
//   * with a sink attached (registry enabled): one branch + one array store;
//   * with no sink: one branch.
//
// Handles are small indices into flat arrays owned by the registry; no
// allocation happens after registration. Instruments are keyed by
// (component, node, core, name); re-registering an existing key returns the
// same slot *zeroed*, so sequentially-constructed worlds (one Cluster per
// benchmark rep) each start from a clean count without growing the store.
//
// Keys are interned integers, not strings. The component, node and name
// labels are interned once per process into label tables (registration
// sites keep their ids in function-local statics; a mach::Machine interns
// its node name once) and packed with the core into one 64-bit key, so a
// registration is one integer-keyed hash lookup and no string is built or
// hashed. Derived names ("<lock>.acquisitions", "<rail>.tx_packets",
// "nm-ep3") are cached by their integer parts the same way. Display
// strings are rendered only by to_json(), to_table() and the string-taking
// lookups, which intern their arguments read-only. label_hashes() counts
// every string an interning call hashes -- the construction-work
// diagnostic: a steady-state world build hashes one string per node (its
// machine name) and nothing per instrument.
//
// The registry is never consulted for simulation decisions and instruments
// are host-side only (no virtual-time charges), so enabling it cannot
// perturb virtual-time results.
// With the partitioned engine, events of different partitions execute on
// different host threads concurrently. Counters and histograms are therefore
// *sharded*: shard 0 is the original flat arrays, and each additional
// partition writes a private shard selected through sim::tls_partition --
// still one branch + one array store on the hot path, with no atomics and no
// false sharing. Every read path (value(), lookups, to_json, to_table) sums
// the shards, so reports are identical to the unsharded registry. Gauges are
// not sharded: every in-tree gauge has a single owning component, which
// lives in exactly one partition.
//
// Registration and interning happen on the setup thread (world
// construction); neither is safe against concurrent registration.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simcore/partition.hpp"

namespace pm2::obs {

/// Interned id of one label string: a component, a node (machine name) or
/// an instrument name, each in its own table. Ids are dense, process-wide
/// and never recycled, so a function-local static can hold one for the
/// life of the process.
using LabelId = std::uint32_t;

/// Node id of process-wide instruments (the empty node label).
inline constexpr LabelId kProcessWide = 0;

/// Identity of one instrument as interned ids -- what registration takes.
/// `core` is -1 unless the instrument is core-scoped.
struct MetricKey {
  LabelId component = 0;
  LabelId node = kProcessWide;
  int core = -1;
  LabelId name = 0;
};

/// A (component, instrument name) pair interned on construction. Meant for
/// function-local statics at registration sites, so steady-state
/// registration interns nothing.
struct MetricName {
  MetricName(std::string_view component, std::string_view name);

  MetricKey at(LabelId node, int core = -1) const {
    return {component, node, core, name};
  }

  LabelId component;
  LabelId name;
};

/// Identity of one instrument as strings. `node` is the machine name
/// ("node0"); empty means process-wide. Registering through a MetricSpec
/// interns its three strings on every call (tests, one-off instruments).
struct MetricSpec {
  std::string component;
  std::string node;
  int core = -1;
  std::string name;
};

class Counter;
class Gauge;
class HistogramMetric;

class MetricsRegistry {
 public:
  /// The process-global instance (the simulator is single-threaded).
  /// Inline: after the first call, one load.
  static MetricsRegistry& global() {
    MetricsRegistry* g = global_.load(std::memory_order_relaxed);
    return g != nullptr ? *g : make_global();
  }

  /// The global instance while it is enabled, else nullptr: the single
  /// load an instrument write costs on the disabled path.
  static MetricsRegistry* active() { return active_; }

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The sink switch: instruments store only while enabled.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    if (this == global_.load(std::memory_order_relaxed)) {
      active_ = on ? this : nullptr;
    }
  }

  /// Size the write shards for @p n engine partitions (shard 0 is the
  /// primary store; partitions 1..n-1 get private shards). Never shrinks,
  /// so stale partition ids stay in range between worlds; shard contents
  /// are zeroed by re-registration and reset_values() like the primary.
  void set_shards(int n);

  /// Register (or re-acquire, zeroing the slot in every shard) an
  /// instrument: one integer-keyed lookup, no string work.
  Counter counter(const MetricKey& key);
  Gauge gauge(const MetricKey& key);
  HistogramMetric histogram(const MetricKey& key);

  /// The same, after interning @p spec's strings.
  Counter counter(const MetricSpec& spec);
  Gauge gauge(const MetricSpec& spec);
  HistogramMetric histogram(const MetricSpec& spec);

  // --- interned labels ------------------------------------------------------

  /// Intern a label (one string hash; inserts it if new). Throws
  /// std::length_error when a table outgrows its field of the packed key.
  static LabelId component_id(std::string_view s);
  static LabelId node_id(std::string_view s);
  static LabelId name_id(std::string_view s);
  /// The name `name(prefix) + name(suffix)`, cached by the id pair: only the
  /// first call for a pair builds and interns the string.
  static LabelId name_id(LabelId prefix, LabelId suffix);
  /// The name `name(prefix) + decimal(index)`, cached the same way.
  static LabelId indexed_name_id(LabelId prefix, std::uint32_t index);

  /// The string of an interned name (stable for the process lifetime).
  static const std::string& name_label(LabelId id);

  /// Construction-work diagnostic (always on): strings hashed by the
  /// interning calls above, and distinct labels interned so far.
  static std::uint64_t label_hashes();
  static std::size_t num_labels();

  // --- lookups (tests, reports) -------------------------------------------

  std::optional<std::uint64_t> counter_value(const std::string& component,
                                             const std::string& node,
                                             const std::string& name,
                                             int core = -1) const;
  std::optional<std::int64_t> gauge_value(const std::string& component,
                                          const std::string& node,
                                          const std::string& name,
                                          int core = -1) const;
  /// Sample count of a histogram (nullopt if not registered).
  std::optional<std::uint64_t> histogram_count(const std::string& component,
                                               const std::string& node,
                                               const std::string& name,
                                               int core = -1) const;

  std::size_t num_counters() const { return counters_.size(); }
  std::size_t num_gauges() const { return gauges_.size(); }
  std::size_t num_histograms() const { return hists_.size(); }
  /// Registration calls so far, re-registrations included.
  std::uint64_t registrations() const { return registrations_; }

  /// Zero every value (registrations survive).
  void reset_values();

  /// Full dump: {"counters":[...],"gauges":[...],"histograms":[...]}.
  std::string to_json() const;

  /// Human-readable aligned table (one instrument per line).
  std::string to_table() const;

  /// Write to_json() to @p path; throws on I/O failure.
  void write_json(const std::string& path) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class HistogramMetric;

  struct GaugeSlot {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  /// Power-of-two buckets: bucket 0 holds value 0, bucket i >= 1 holds
  /// [2^(i-1), 2^i).
  struct HistSlot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t buckets[64] = {};
  };

  /// One partition's private write store (lazily sized on first write, so
  /// registration order and shard count are independent).
  struct Shard {
    std::vector<std::uint64_t> counters;
    std::vector<HistSlot> hists;
  };

  /// Cell the calling thread's counter writes land in.
  std::uint64_t& counter_cell(std::uint32_t idx) {
    const int s = sim::tls_partition;
    if (s <= 0 || shards_.empty()) return counters_[idx];
    auto& v = shard(s).counters;
    if (v.size() <= idx) v.resize(std::max(counters_.size(), idx + 1ul), 0);
    return v[idx];
  }

  /// Slot the calling thread's histogram writes land in.
  HistSlot& hist_cell(std::uint32_t idx) {
    const int s = sim::tls_partition;
    if (s <= 0 || shards_.empty()) return hists_[idx];
    auto& v = shard(s).hists;
    if (v.size() <= idx) v.resize(std::max(hists_.size(), idx + 1ul));
    return v[idx];
  }

  Shard& shard(int partition) {
    const std::size_t i =
        std::min(static_cast<std::size_t>(partition), shards_.size()) - 1;
    return *shards_[i];
  }

  std::uint64_t counter_total(std::uint32_t idx) const;
  HistSlot hist_total(std::uint32_t idx) const;

  /// Packed 64-bit instrument keys in registration order (slot i's key is
  /// keys[i]) and the slot of each key.
  struct KeyIndex {
    std::vector<std::uint64_t> keys;
    std::unordered_map<std::uint64_t, std::uint32_t> slots;

    /// Slot of @p key, appended if new (@p added reports which).
    std::uint32_t find_or_add(std::uint64_t key, bool& added);
    std::optional<std::uint32_t> find(std::uint64_t key) const;
  };

  /// Read-only key of a string identity (nullopt if any label is unknown).
  static std::optional<std::uint64_t> find_key(const std::string& component,
                                               const std::string& node,
                                               int core,
                                               const std::string& name);

  static MetricsRegistry& make_global();
  static inline std::atomic<MetricsRegistry*> global_{nullptr};
  static inline MetricsRegistry* active_ = nullptr;

  bool enabled_ = false;
  std::uint64_t registrations_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< partitions 1..n-1

  std::vector<std::uint64_t> counters_;
  KeyIndex counter_keys_;

  std::vector<GaugeSlot> gauges_;
  KeyIndex gauge_keys_;

  std::vector<HistSlot> hists_;
  KeyIndex hist_keys_;
};

inline constexpr std::uint32_t kInvalidMetric = 0xffffffffu;

/// Monotone event count. Default-constructed handles are inert.
class Counter {
 public:
  Counter() = default;

  bool valid() const { return idx_ != kInvalidMetric; }

  /// Hot path: branch + array add while the registry is enabled.
  void inc(std::uint64_t delta = 1) {
    MetricsRegistry* r = MetricsRegistry::active();
    if (r != nullptr && idx_ != kInvalidMetric) r->counter_cell(idx_) += delta;
  }

  /// Unconditional add, for counters whose call sites predate the registry
  /// and are documented as always-on (nmad::Core::Stats). Still one array
  /// store; independent of enabled().
  void add_always(std::uint64_t delta = 1) {
    if (idx_ != kInvalidMetric)
      MetricsRegistry::global().counter_cell(idx_) += delta;
  }

  std::uint64_t value() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().counter_total(idx_)
               : 0;
  }
  operator std::uint64_t() const { return value(); }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = kInvalidMetric;
};

/// Last-value instrument that also tracks its high-water mark.
class Gauge {
 public:
  Gauge() = default;

  bool valid() const { return idx_ != kInvalidMetric; }

  void set(std::int64_t v) {
    MetricsRegistry* r = MetricsRegistry::active();
    if (r != nullptr && idx_ != kInvalidMetric) {
      auto& slot = r->gauges_[idx_];
      slot.value = v;
      if (v > slot.max) slot.max = v;
    }
  }

  std::int64_t value() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().gauges_[idx_].value
               : 0;
  }
  std::int64_t max() const {
    return idx_ != kInvalidMetric ? MetricsRegistry::global().gauges_[idx_].max
                                  : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = kInvalidMetric;
};

/// Fixed power-of-two-bucket histogram (no allocation on observe).
class HistogramMetric {
 public:
  HistogramMetric() = default;

  bool valid() const { return idx_ != kInvalidMetric; }

  void observe(std::uint64_t v) {
    MetricsRegistry* r = MetricsRegistry::active();
    if (r != nullptr && idx_ != kInvalidMetric) {
      auto& slot = r->hist_cell(idx_);
      if (slot.count == 0 || v < slot.min) slot.min = v;
      if (v > slot.max) slot.max = v;
      ++slot.count;
      slot.sum += v;
      ++slot.buckets[bucket_of(v)];
    }
  }

  std::uint64_t count() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().hist_total(idx_).count
               : 0;
  }
  std::uint64_t sum() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().hist_total(idx_).sum
               : 0;
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Bucket index covering @p v (0 -> value 0; i >= 1 -> [2^(i-1), 2^i)).
  static int bucket_of(std::uint64_t v) {
    int b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b > 63 ? 63 : b;
  }

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = kInvalidMetric;
};

}  // namespace pm2::obs
