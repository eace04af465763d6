#include "simnet/buffer_pool.hpp"

#include <cassert>

namespace pm2::net {

struct SlabRef::Slab {
  std::unique_ptr<std::uint8_t[]> mem;
  std::size_t cap = 0;
  std::uint32_t bucket = 0;
  std::uint32_t refs = 0;
  BufferPool* owner = nullptr;
};

namespace {

constexpr std::size_t kMinSlab = 64;
constexpr std::size_t kNumBuckets = 48;  // up to 2^(6+47) -- never reached

/// Size class index: bucket b holds slabs of capacity kMinSlab << b.
std::uint32_t bucket_of(std::size_t size) {
  std::uint32_t b = 0;
  std::size_t cap = kMinSlab;
  while (cap < size) {
    cap <<= 1;
    ++b;
  }
  return b;
}

}  // namespace

SlabRef::SlabRef(const SlabRef& o) : slab_(o.slab_) {
  if (slab_ != nullptr) ++slab_->refs;
}

SlabRef& SlabRef::operator=(const SlabRef& o) {
  if (this == &o) return *this;
  reset();
  slab_ = o.slab_;
  if (slab_ != nullptr) ++slab_->refs;
  return *this;
}

SlabRef& SlabRef::operator=(SlabRef&& o) noexcept {
  if (this == &o) return *this;
  reset();
  slab_ = o.slab_;
  o.slab_ = nullptr;
  return *this;
}

std::uint8_t* SlabRef::data() const {
  assert(slab_ != nullptr);
  return slab_->mem.get();
}

std::size_t SlabRef::capacity() const {
  return slab_ != nullptr ? slab_->cap : 0;
}

void SlabRef::reset() {
  if (slab_ == nullptr) return;
  assert(slab_->refs > 0);
  if (--slab_->refs == 0) slab_->owner->recycle(slab_);
  slab_ = nullptr;
}

BufferPool& BufferPool::global() {
  static BufferPool* pool = new BufferPool();  // leaked: see header
  return *pool;
}

BufferPool::BufferPool() : free_(kNumBuckets) {
  static const obs::MetricName kHits("pool", "hits");
  static const obs::MetricName kMisses("pool", "misses");
  static const obs::MetricName kReused("pool", "bytes_reused");
  static const obs::MetricName kAllocated("pool", "bytes_allocated");
  auto& reg = obs::MetricsRegistry::global();
  m_hits_ = reg.counter(kHits.at(obs::kProcessWide));
  m_misses_ = reg.counter(kMisses.at(obs::kProcessWide));
  m_bytes_reused_ = reg.counter(kReused.at(obs::kProcessWide));
  m_bytes_allocated_ = reg.counter(kAllocated.at(obs::kProcessWide));
}

BufferPool::~BufferPool() { trim(); }

SlabRef BufferPool::acquire(std::size_t size) {
  const std::uint32_t b = bucket_of(size);
  assert(b < kNumBuckets);
  std::lock_guard<std::mutex> lock(mu_);
  auto& list = free_[b];
  SlabRef::Slab* s;
  if (!list.empty()) {
    s = list.back();
    list.pop_back();
    ++hits_;
    bytes_reused_ += s->cap;
    m_hits_.inc();
    m_bytes_reused_.inc(s->cap);
  } else {
    const std::size_t cap = kMinSlab << b;
    s = new SlabRef::Slab();
    s->mem = std::make_unique<std::uint8_t[]>(cap);
    s->cap = cap;
    s->bucket = b;
    s->owner = this;
    ++misses_;
    bytes_allocated_ += cap;
    m_misses_.inc();
    m_bytes_allocated_.inc(cap);
  }
  s->refs = 1;
  ++live_slabs_;
  return SlabRef(s);
}

void BufferPool::recycle(SlabRef::Slab* s) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(live_slabs_ > 0);
  --live_slabs_;
  free_[s->bucket].push_back(s);
}

void BufferPool::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& list : free_) {
    for (SlabRef::Slab* s : list) delete s;
    list.clear();
  }
}

std::size_t BufferPool::idle_slabs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& list : free_) n += list.size();
  return n;
}

}  // namespace pm2::net
