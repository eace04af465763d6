#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <stdexcept>

namespace pm2::obs {

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// One interned label table: strings live in a deque (stable references
/// for the string_view keys and for callers of name_label()).
class LabelTable {
 public:
  LabelTable(const char* what, std::size_t capacity)
      : what_(what), capacity_(capacity) {}

  LabelId intern(std::string_view s, std::uint64_t& hashes) {
    ++hashes;
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    if (strings_.size() >= capacity_) {
      throw std::length_error(std::string("MetricsRegistry: too many ") +
                              what_ + " labels");
    }
    const auto id = static_cast<LabelId>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  std::optional<LabelId> find(std::string_view s) const {
    auto it = ids_.find(s);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }

  const std::string& str(LabelId id) const { return strings_.at(id); }
  std::size_t size() const { return strings_.size(); }

 private:
  const char* what_;
  std::size_t capacity_;
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, LabelId> ids_;
};

// Packed key layout, low to high: component (12 bits), node (20), core + 1
// (12), name (20).
constexpr int kComponentBits = 12;
constexpr int kNodeBits = 20;
constexpr int kCoreBits = 12;
constexpr int kNameBits = 20;
constexpr int kNodeShift = kComponentBits;
constexpr int kCoreShift = kNodeShift + kNodeBits;
constexpr int kNameShift = kCoreShift + kCoreBits;
static_assert(kNameShift + kNameBits == 64);

constexpr std::uint64_t field_mask(int bits) { return (1ull << bits) - 1; }

/// Process-wide label tables (shared by every registry instance, so ids
/// held in statics are valid everywhere).
struct Labels {
  LabelTable components{"component", 1u << kComponentBits};
  LabelTable nodes{"node", 1u << kNodeBits};
  LabelTable names{"name", 1u << kNameBits};
  /// Derived names: (prefix << 33 | suffix << 1 | 0) for prefix + suffix,
  /// (prefix << 33 | index << 1 | 1) for prefix + decimal index.
  std::unordered_map<std::uint64_t, LabelId> derived;
  std::uint64_t hashes = 0;

  Labels() {
    // kProcessWide: the empty node label is id 0.
    std::uint64_t ignored = 0;
    nodes.intern("", ignored);
  }
};

Labels& labels() {
  static Labels l;
  return l;
}

/// Key with @p core validated; nullopt if the core cannot be packed.
std::optional<std::uint64_t> pack(LabelId component, LabelId node, int core,
                                  LabelId name) {
  if (core < -1 || core + 1 > static_cast<int>(field_mask(kCoreBits))) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(component) |
         static_cast<std::uint64_t>(node) << kNodeShift |
         static_cast<std::uint64_t>(core + 1) << kCoreShift |
         static_cast<std::uint64_t>(name) << kNameShift;
}

std::uint64_t pack_or_throw(const MetricKey& k) {
  const Labels& l = labels();
  if (k.component >= l.components.size() || k.node >= l.nodes.size() ||
      k.name >= l.names.size()) {
    throw std::out_of_range("MetricsRegistry: label id was never interned");
  }
  const auto key = pack(k.component, k.node, k.core, k.name);
  if (!key) throw std::out_of_range("MetricsRegistry: core out of range");
  return *key;
}

/// Display labels of a packed key.
struct KeyLabels {
  const std::string& component;
  const std::string& node;
  int core;
  const std::string& name;
};

KeyLabels unpack(std::uint64_t key) {
  const Labels& l = labels();
  return {l.components.str(
              static_cast<LabelId>(key & field_mask(kComponentBits))),
          l.nodes.str(
              static_cast<LabelId>(key >> kNodeShift & field_mask(kNodeBits))),
          static_cast<int>(key >> kCoreShift & field_mask(kCoreBits)) - 1,
          l.names.str(static_cast<LabelId>(key >> kNameShift))};
}

void append_spec(std::string& out, const KeyLabels& k) {
  out += "\"component\":";
  append_json_string(out, k.component);
  out += ",\"node\":";
  append_json_string(out, k.node);
  if (k.core >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"core\":%d", k.core);
    out += buf;
  }
  out += ",\"name\":";
  append_json_string(out, k.name);
}

std::string display_key(const KeyLabels& k) {
  std::string s = k.component;
  if (!k.node.empty()) s += "/" + k.node;
  if (k.core >= 0) s += "/core" + std::to_string(k.core);
  s += "/" + k.name;
  return s;
}

}  // namespace

MetricsRegistry& MetricsRegistry::make_global() {
  static MetricsRegistry g;
  global_.store(&g, std::memory_order_relaxed);
  return g;
}

void MetricsRegistry::set_shards(int n) {
  const std::size_t extra = n > 1 ? static_cast<std::size_t>(n - 1) : 0;
  while (shards_.size() < extra) shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t MetricsRegistry::counter_total(std::uint32_t idx) const {
  std::uint64_t total = counters_[idx];
  for (const auto& sh : shards_) {
    if (idx < sh->counters.size()) total += sh->counters[idx];
  }
  return total;
}

MetricsRegistry::HistSlot MetricsRegistry::hist_total(
    std::uint32_t idx) const {
  HistSlot total = hists_[idx];
  for (const auto& sh : shards_) {
    if (idx >= sh->hists.size()) continue;
    const HistSlot& h = sh->hists[idx];
    if (h.count == 0) continue;
    if (total.count == 0 || h.min < total.min) total.min = h.min;
    if (h.max > total.max) total.max = h.max;
    total.count += h.count;
    total.sum += h.sum;
    for (int b = 0; b < 64; ++b) total.buckets[b] += h.buckets[b];
  }
  return total;
}

MetricName::MetricName(std::string_view component, std::string_view name)
    : component(MetricsRegistry::component_id(component)),
      name(MetricsRegistry::name_id(name)) {}

LabelId MetricsRegistry::component_id(std::string_view s) {
  Labels& l = labels();
  return l.components.intern(s, l.hashes);
}

LabelId MetricsRegistry::node_id(std::string_view s) {
  Labels& l = labels();
  return l.nodes.intern(s, l.hashes);
}

LabelId MetricsRegistry::name_id(std::string_view s) {
  Labels& l = labels();
  return l.names.intern(s, l.hashes);
}

LabelId MetricsRegistry::name_id(LabelId prefix, LabelId suffix) {
  Labels& l = labels();
  const std::uint64_t key = static_cast<std::uint64_t>(prefix) << 33 |
                            static_cast<std::uint64_t>(suffix) << 1;
  auto it = l.derived.find(key);
  if (it != l.derived.end()) return it->second;
  const LabelId id = name_id(l.names.str(prefix) + l.names.str(suffix));
  l.derived.emplace(key, id);
  return id;
}

LabelId MetricsRegistry::indexed_name_id(LabelId prefix, std::uint32_t index) {
  Labels& l = labels();
  const std::uint64_t key = static_cast<std::uint64_t>(prefix) << 33 |
                            static_cast<std::uint64_t>(index) << 1 | 1;
  auto it = l.derived.find(key);
  if (it != l.derived.end()) return it->second;
  const LabelId id = name_id(l.names.str(prefix) + std::to_string(index));
  l.derived.emplace(key, id);
  return id;
}

const std::string& MetricsRegistry::name_label(LabelId id) {
  return labels().names.str(id);
}

std::uint64_t MetricsRegistry::label_hashes() { return labels().hashes; }

std::size_t MetricsRegistry::num_labels() {
  const Labels& l = labels();
  return l.components.size() + l.nodes.size() + l.names.size();
}

std::uint32_t MetricsRegistry::KeyIndex::find_or_add(std::uint64_t key,
                                                     bool& added) {
  const auto next = static_cast<std::uint32_t>(keys.size());
  auto [it, inserted] = slots.try_emplace(key, next);
  added = inserted;
  if (inserted) keys.push_back(key);
  return it->second;
}

std::optional<std::uint32_t> MetricsRegistry::KeyIndex::find(
    std::uint64_t key) const {
  auto it = slots.find(key);
  if (it == slots.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint64_t> MetricsRegistry::find_key(
    const std::string& component, const std::string& node, int core,
    const std::string& name) {
  const Labels& l = labels();
  const auto c = l.components.find(component);
  const auto n = l.nodes.find(node);
  const auto m = l.names.find(name);
  if (!c || !n || !m) return std::nullopt;
  return pack(*c, *n, core, *m);
}

Counter MetricsRegistry::counter(const MetricKey& key) {
  ++registrations_;
  bool added = false;
  const std::uint32_t idx =
      counter_keys_.find_or_add(pack_or_throw(key), added);
  if (added) {
    counters_.push_back(0);
    return Counter(idx);
  }
  counters_[idx] = 0;  // fresh instance, fresh count
  for (auto& sh : shards_) {
    if (idx < sh->counters.size()) sh->counters[idx] = 0;
  }
  return Counter(idx);
}

Gauge MetricsRegistry::gauge(const MetricKey& key) {
  ++registrations_;
  bool added = false;
  const std::uint32_t idx = gauge_keys_.find_or_add(pack_or_throw(key), added);
  if (added) {
    gauges_.push_back(GaugeSlot{});
  } else {
    gauges_[idx] = GaugeSlot{};
  }
  return Gauge(idx);
}

HistogramMetric MetricsRegistry::histogram(const MetricKey& key) {
  ++registrations_;
  bool added = false;
  const std::uint32_t idx = hist_keys_.find_or_add(pack_or_throw(key), added);
  if (added) {
    hists_.push_back(HistSlot{});
    return HistogramMetric(idx);
  }
  hists_[idx] = HistSlot{};
  for (auto& sh : shards_) {
    if (idx < sh->hists.size()) sh->hists[idx] = HistSlot{};
  }
  return HistogramMetric(idx);
}

namespace {
MetricKey intern_spec(const MetricSpec& spec) {
  return {MetricsRegistry::component_id(spec.component),
          MetricsRegistry::node_id(spec.node), spec.core,
          MetricsRegistry::name_id(spec.name)};
}
}  // namespace

Counter MetricsRegistry::counter(const MetricSpec& spec) {
  return counter(intern_spec(spec));
}

Gauge MetricsRegistry::gauge(const MetricSpec& spec) {
  return gauge(intern_spec(spec));
}

HistogramMetric MetricsRegistry::histogram(const MetricSpec& spec) {
  return histogram(intern_spec(spec));
}

std::optional<std::uint64_t> MetricsRegistry::counter_value(
    const std::string& component, const std::string& node,
    const std::string& name, int core) const {
  const auto key = find_key(component, node, core, name);
  const auto idx = key ? counter_keys_.find(*key) : std::nullopt;
  if (!idx) return std::nullopt;
  return counter_total(*idx);
}

std::optional<std::int64_t> MetricsRegistry::gauge_value(
    const std::string& component, const std::string& node,
    const std::string& name, int core) const {
  const auto key = find_key(component, node, core, name);
  const auto idx = key ? gauge_keys_.find(*key) : std::nullopt;
  if (!idx) return std::nullopt;
  return gauges_[*idx].value;
}

std::optional<std::uint64_t> MetricsRegistry::histogram_count(
    const std::string& component, const std::string& node,
    const std::string& name, int core) const {
  const auto key = find_key(component, node, core, name);
  const auto idx = key ? hist_keys_.find(*key) : std::nullopt;
  if (!idx) return std::nullopt;
  return hist_total(*idx).count;
}

void MetricsRegistry::reset_values() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), GaugeSlot{});
  std::fill(hists_.begin(), hists_.end(), HistSlot{});
  for (auto& sh : shards_) {
    sh->counters.clear();  // lazily regrown on next sharded write
    sh->hists.clear();
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"schema\":\"pm2sim-metrics-v1\",\"counters\":[";
  char buf[96];
  bool first = true;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{";
    append_spec(out, unpack(counter_keys_.keys[i]));
    std::snprintf(
        buf, sizeof(buf), ",\"value\":%llu}",
        static_cast<unsigned long long>(
            counter_total(static_cast<std::uint32_t>(i))));
    out += buf;
  }
  out += "\n],\"gauges\":[";
  first = true;
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{";
    append_spec(out, unpack(gauge_keys_.keys[i]));
    std::snprintf(buf, sizeof(buf), ",\"value\":%lld,\"max\":%lld}",
                  static_cast<long long>(gauges_[i].value),
                  static_cast<long long>(gauges_[i].max));
    out += buf;
  }
  out += "\n],\"histograms\":[";
  first = true;
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{";
    append_spec(out, unpack(hist_keys_.keys[i]));
    const HistSlot h = hist_total(static_cast<std::uint32_t>(i));
    std::snprintf(buf, sizeof(buf),
                  ",\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out += buf;
    out += ",\"buckets\":[";
    bool bfirst = true;
    for (int b = 0; b < 64; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
      const unsigned long long lo = b == 0 ? 0 : 1ull << (b - 1);
      std::snprintf(buf, sizeof(buf), "{\"lo\":%llu,\"n\":%llu}", lo,
                    static_cast<unsigned long long>(h.buckets[b]));
      out += buf;
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string MetricsRegistry::to_table() const {
  std::size_t width = 0;
  for (const KeyIndex* index : {&counter_keys_, &gauge_keys_, &hist_keys_}) {
    for (std::uint64_t k : index->keys) {
      width = std::max(width, display_key(unpack(k)).size());
    }
  }

  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-*s %20llu\n", static_cast<int>(width),
                  display_key(unpack(counter_keys_.keys[i])).c_str(),
                  static_cast<unsigned long long>(
                      counter_total(static_cast<std::uint32_t>(i))));
    out += buf;
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-*s %20lld  (max %lld)\n",
                  static_cast<int>(width),
                  display_key(unpack(gauge_keys_.keys[i])).c_str(),
                  static_cast<long long>(gauges_[i].value),
                  static_cast<long long>(gauges_[i].max));
    out += buf;
  }
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const HistSlot h = hist_total(static_cast<std::uint32_t>(i));
    const double mean =
        h.count == 0 ? 0.0
                     : static_cast<double>(h.sum) / static_cast<double>(h.count);
    std::snprintf(buf, sizeof(buf),
                  "%-*s %20llu  (mean %.1f, min %llu, max %llu)\n",
                  static_cast<int>(width),
                  display_key(unpack(hist_keys_.keys[i])).c_str(),
                  static_cast<unsigned long long>(h.count), mean,
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("MetricsRegistry: cannot open " + path);
  f << to_json();
  if (!f) throw std::runtime_error("MetricsRegistry: write failed: " + path);
}

}  // namespace pm2::obs
