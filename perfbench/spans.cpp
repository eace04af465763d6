#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace pm2bench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The calling thread's buffer and the log it belongs to. Engine worker
// threads are created per run, so each registers a fresh buffer.
thread_local const SpanLog* tls_owner = nullptr;
thread_local std::vector<Span>* tls_buffer = nullptr;

}  // namespace

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kEpisode: return "episode";
    case SpanKind::kCtor: return "cluster.ctor";
    case SpanKind::kSpawn: return "cluster.spawn";
    case SpanKind::kRun: return "cluster.run";
    case SpanKind::kDtor: return "cluster.dtor";
    case SpanKind::kIsend: return "nmad.isend";
    case SpanKind::kIrecv: return "nmad.irecv";
    case SpanKind::kWait: return "nmad.wait";
    case SpanKind::kSendrecv: return "madmpi.sendrecv";
    case SpanKind::kAllreduce: return "madmpi.allreduce";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity)
    : origin_ns_(steady_ns()), capacity_(capacity) {}

std::int64_t SpanLog::now_ns() const { return steady_ns() - origin_ns_; }

std::vector<Span>& SpanLog::local_buffer() {
  if (tls_owner != this || tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    tls_buffer = buffers_.back().get();
    tls_owner = this;
  }
  return *tls_buffer;
}

void SpanLog::add(const Span& s) {
  if (used_.fetch_add(1) >= capacity_) {
    dropped_.fetch_add(1);
    return;
  }
  local_buffer().push_back(s);
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return std::pair(a.start_ns, a.id) < std::pair(b.start_ns, b.id);
  });
  return all;
}

void SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id,parent,episode,name,start_ns,end_ns\n");
  for (const Span& s : collect()) {
    std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.episode,
                 span_name(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

ScopedSpan::ScopedSpan(SpanLog* log, SpanKind kind, std::uint32_t episode,
                       std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->next_id();
  span_.parent = parent;
  span_.episode = episode;
  span_.kind = kind;
  span_.start_ns = log_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  log_->add(span_);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children intervals per parent; fiber-side children of one run span
  // overlap each other, so coverage is the union, not the sum.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, spans[i].start_ns);
      b = std::min(b, spans[i].end_ns);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

}  // namespace pm2bench
