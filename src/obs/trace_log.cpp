#include "obs/trace_log.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "obs/flow.hpp"
#include "simcore/chrome_trace.hpp"
#include "simcore/engine.hpp"

namespace pm2::obs {

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr char kMagic[8] = {'P', 'M', '2', 'T', 'R', 'C', '0', '1'};

struct BinHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint32_t ring_count;
  std::uint32_t string_count;
};

struct BinRingHeader {
  std::uint64_t count;
  std::uint64_t first_seq;
  std::uint64_t dropped;
};

}  // namespace

void TraceLog::configure(const Options& opts) {
  stop_drain_thread();
  rings_.clear();
  const int n = opts.rings < 1 ? 1 : opts.rings;
  rings_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<Ring>(opts.capacity));
  }
  overflow_ = opts.overflow;
  engine_ = opts.engine;
  static const MetricName kDropped("obs", "trace.dropped");
  dropped_metric_ =
      MetricsRegistry::global().counter(kDropped.at(kProcessWide));
  for (auto& slot : slots_) slot.store(nullptr, std::memory_order_relaxed);
  entries_.clear();
  strings_.assign(1, std::string());
}

std::uint16_t TraceLog::intern(std::string_view s) {
  if (s.empty()) return 0;
  const std::uint64_t h = fnv1a(s);
  const std::size_t mask = kInternSlots - 1;
  // Lock-free fast path: probe published entries only.
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const InternEntry* e = slots_[i].load(std::memory_order_acquire);
    if (e == nullptr) break;
    if (e->hash == h && e->str == s) return e->id;
  }
  // First sight (cold): insert under the mutex, re-probing for a racer
  // that published the same string between our probe and the lock.
  std::lock_guard<std::mutex> lock(intern_mu_);
  std::size_t i = h & mask;
  for (;; i = (i + 1) & mask) {
    const InternEntry* e = slots_[i].load(std::memory_order_relaxed);
    if (e == nullptr) break;
    if (e->hash == h && e->str == s) return e->id;
  }
  if (strings_.size() > kMaxInterned) return 0;  // table full: alias to ""
  const auto id = static_cast<std::uint16_t>(strings_.size());
  strings_.emplace_back(s);
  entries_.push_back(InternEntry{std::string(s), h, id});
  slots_[i].store(&entries_.back(), std::memory_order_release);
  return id;
}

void TraceLog::push_overflow(Ring& ring, const sim::TraceRecord& r) {
  // Full. With inline spill and no drain thread attached, the producer is
  // the only writer of this partition's ring, so it may take the consumer
  // side itself -- lossless. With a drain thread (or kDrop), drop + count.
  if (overflow_ == Overflow::kSpill &&
      !drain_running_.load(std::memory_order_acquire)) {
    spill_ring(ring);
    if (ring.ring.try_push(r)) return;
  }
  ring.dropped.fetch_add(1, std::memory_order_relaxed);
  dropped_metric_.inc();
}

void TraceLog::spill_ring(Ring& r) {
  std::lock_guard<std::mutex> lock(r.consume_mu);
  sim::TraceRecord buf[256];
  for (;;) {
    const std::size_t n = r.ring.pop_n(buf, 256);
    if (n == 0) break;
    r.spill.insert(r.spill.end(), buf, buf + n);
  }
}

void TraceLog::drain_now() {
  for (auto& r : rings_) spill_ring(*r);
}

void TraceLog::start_drain_thread(std::chrono::microseconds period) {
  if (drain_thread_.joinable()) return;
  drain_stop_.store(false, std::memory_order_relaxed);
  drain_running_.store(true, std::memory_order_release);
  drain_thread_ = std::thread([this, period] {
    while (!drain_stop_.load(std::memory_order_acquire)) {
      drain_now();
      std::this_thread::sleep_for(period);
    }
  });
}

void TraceLog::stop_drain_thread() {
  if (!drain_thread_.joinable()) return;
  drain_stop_.store(true, std::memory_order_release);
  drain_thread_.join();
  drain_thread_ = std::thread();
  drain_running_.store(false, std::memory_order_release);
  drain_now();
}

std::size_t TraceLog::record_count() {
  drain_now();
  std::size_t n = 0;
  for (auto& r : rings_) {
    std::lock_guard<std::mutex> lock(r->consume_mu);
    n += r->spill.size();
  }
  return n;
}

std::uint64_t TraceLog::dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->dropped.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t TraceLog::ring_dropped(int ring) const {
  return rings_[static_cast<std::size_t>(ring)]->dropped.load(
      std::memory_order_relaxed);
}

std::vector<sim::TraceRecord> TraceLog::canonicalize(
    const std::vector<const std::vector<sim::TraceRecord>*>& rings) {
  struct Ref {
    sim::Time emit;
    std::uint32_t ring;
    std::uint32_t idx;
  };
  std::size_t total = 0;
  for (const auto* r : rings) total += r->size();
  std::vector<Ref> refs;
  refs.reserve(total);
  for (std::uint32_t r = 0; r < rings.size(); ++r) {
    const auto& recs = *rings[r];
    for (std::uint32_t i = 0; i < recs.size(); ++i) {
      refs.push_back(Ref{recs[i].emit, r, i});
    }
  }
  // (ring, idx) pairs are unique, so this order is total and deterministic.
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.emit, a.ring, a.idx) < std::tie(b.emit, b.ring, b.idx);
  });
  std::vector<sim::TraceRecord> out;
  out.reserve(total);
  for (const Ref& ref : refs) out.push_back((*rings[ref.ring])[ref.idx]);
  return out;
}

std::vector<sim::TraceRecord> TraceLog::canonical_records() {
  drain_now();
  std::vector<std::unique_lock<std::mutex>> locks;
  std::vector<const std::vector<sim::TraceRecord>*> spills;
  locks.reserve(rings_.size());
  spills.reserve(rings_.size());
  for (auto& r : rings_) {
    locks.emplace_back(r->consume_mu);
    spills.push_back(&r->spill);
  }
  return canonicalize(spills);
}

std::string TraceLog::records_to_json(
    const std::vector<sim::TraceRecord>& canonical,
    const std::vector<std::string>& strings) {
  auto str = [&strings](std::uint16_t id) {
    return id < strings.size() ? std::string_view(strings[id])
                               : std::string_view();
  };
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  // Flow-arrow synthesis state: stages already seen per flow id, replayed
  // in canonical order; each stage's arrow event marks its first stamp.
  std::unordered_map<std::uint64_t, unsigned> stages_seen;
  for (const sim::TraceRecord& r : canonical) {
    sim::TraceEventView v;
    if (r.phase == sim::kFlowStampPhase) {
      const int stage = static_cast<int>(r.dur);
      if (stage < 0 || stage >= kFlowStageCount) continue;
      unsigned& mask = stages_seen[r.id];
      const bool first_stamp = (mask & (1u << stage)) == 0;
      mask |= 1u << stage;
      if (!first_stamp) continue;
      switch (static_cast<FlowStage>(stage)) {
        case FlowStage::kNicPost: v.phase = 's'; break;
        case FlowStage::kDeliver: v.phase = 't'; break;
        case FlowStage::kComplete: v.phase = 'f'; break;
        default: continue;
      }
      v.name = "msg";
      v.category = "flow";
      v.ts = r.ts;
      v.flow_id = r.id;
    } else {
      v.phase = static_cast<char>(r.phase);
      v.name = str(r.name);
      if (v.phase == 'M') {
        v.meta_kind = str(r.cat);
      } else {
        v.category = str(r.cat);
      }
      v.ts = r.ts;
      v.dur = r.dur;
      if (v.phase == 'C') {
        v.value = std::bit_cast<double>(r.id);
      } else {
        v.flow_id = r.id;
      }
    }
    v.pid = r.pid;
    v.tid = r.tid;
    if (!first) out += ",\n";
    first = false;
    sim::append_trace_event_json(out, v);
  }
  out += "\n]}\n";
  return out;
}

std::string TraceLog::to_json() {
  const std::vector<sim::TraceRecord> recs = canonical_records();
  std::lock_guard<std::mutex> lock(intern_mu_);
  return records_to_json(recs, strings_);
}

void TraceLog::write_binary(const std::string& path) {
  drain_now();
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("TraceLog: cannot open " + path);

  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(rings_.size());
  for (auto& r : rings_) locks.emplace_back(r->consume_mu);
  std::lock_guard<std::mutex> slock(intern_mu_);

  BinHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = 1;
  h.record_size = sizeof(sim::TraceRecord);
  h.ring_count = static_cast<std::uint32_t>(rings_.size());
  h.string_count = static_cast<std::uint32_t>(strings_.size());
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));

  for (const auto& r : rings_) {
    BinRingHeader rh{r->spill.size(), 0,
                     r->dropped.load(std::memory_order_relaxed)};
    f.write(reinterpret_cast<const char*>(&rh), sizeof(rh));
  }
  for (const auto& r : rings_) {
    if (r->spill.empty()) continue;
    f.write(reinterpret_cast<const char*>(r->spill.data()),
            static_cast<std::streamsize>(r->spill.size() *
                                         sizeof(sim::TraceRecord)));
  }
  for (const std::string& s : strings_) {
    const auto len = static_cast<std::uint32_t>(s.size());
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    if (len != 0) f.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  if (!f) throw std::runtime_error("TraceLog: write failed: " + path);
}

TraceLog::Data TraceLog::read_binary(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("TraceLog: cannot open " + path);
  auto fail = [&path](const char* what) -> std::runtime_error {
    return std::runtime_error("TraceLog: " + path + ": " + what);
  };

  BinHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!f) throw fail("truncated header");
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
    throw fail("not a pm2sim trace log (bad magic)");
  if (h.version != 1) throw fail("unsupported version");
  if (h.record_size != sizeof(sim::TraceRecord))
    throw fail("record size mismatch");

  Data data;
  std::vector<BinRingHeader> ring_headers(h.ring_count);
  f.read(reinterpret_cast<char*>(ring_headers.data()),
         static_cast<std::streamsize>(h.ring_count * sizeof(BinRingHeader)));
  if (!f) throw fail("truncated ring headers");

  data.rings.resize(h.ring_count);
  data.dropped.resize(h.ring_count);
  for (std::uint32_t r = 0; r < h.ring_count; ++r) {
    data.dropped[r] = ring_headers[r].dropped;
    if (ring_headers[r].count == 0) continue;
    data.rings[r].resize(ring_headers[r].count);
    f.read(reinterpret_cast<char*>(data.rings[r].data()),
           static_cast<std::streamsize>(ring_headers[r].count *
                                        sizeof(sim::TraceRecord)));
    if (!f) throw fail("truncated records");
  }
  data.strings.resize(h.string_count);
  for (std::uint32_t i = 0; i < h.string_count; ++i) {
    std::uint32_t len = 0;
    f.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!f) throw fail("truncated string table");
    if (len > (1u << 20)) throw fail("oversized string");
    if (len == 0) continue;
    data.strings[i].resize(len);
    f.read(data.strings[i].data(), static_cast<std::streamsize>(len));
    if (!f) throw fail("truncated string table");
  }
  return data;
}

std::string TraceLog::data_to_json(const Data& data) {
  std::vector<const std::vector<sim::TraceRecord>*> rings;
  rings.reserve(data.rings.size());
  for (const auto& r : data.rings) rings.push_back(&r);
  return records_to_json(canonicalize(rings), data.strings);
}

}  // namespace pm2::obs
