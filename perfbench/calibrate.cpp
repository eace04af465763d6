#include "calibrate.hpp"

#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace pm2bench {

namespace {

// Keeps the kernel's result observable so it cannot be optimized away.
volatile std::uint64_t g_sink;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double calibration_kernel_s() {
  constexpr int kEvents = 5000;
  constexpr std::uint32_t kQueued = 2048;
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, id)
  std::uint64_t s = 0x2545f4914f6cdd1dull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  // Building the queue and touching the state array is left untimed: it
  // takes page faults whose cost depends on what the program's last episode
  // left in the allocator, and the cache holds the working set afterwards.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::uint64_t> state(1u << 15);
  std::vector<std::unique_ptr<std::uint8_t[]>> live(512);
  for (std::uint32_t id = 0; id < kQueued; ++id) queue.push({next() % 1000, id});
  std::uint64_t acc = 0;
  const double t0 = thread_cpu_s();
  for (int i = 0; i < kEvents; ++i) {
    const auto [t, id] = queue.top();
    queue.pop();
    const std::uint64_t r = next();
    const std::size_t mask = state.size() - 1;
    state[(id * 2654435761u + r) & mask] += t;
    acc += state[r & mask];
    auto& slot = live[r % live.size()];
    slot.reset(new std::uint8_t[64 + (r >> 20) % 512]);
    slot[0] = static_cast<std::uint8_t>(acc);
    queue.push({t + 1 + (r >> 40) % 1000, id});
  }
  const double dt = thread_cpu_s() - t0;
  g_sink = acc;
  return dt;
}

}  // namespace pm2bench
