#include "host_probe.h"

#include <chrono>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

double host_probe_s() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64: same work every call
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::unordered_map<std::uint32_t, double> counts;
  std::vector<double> table(1 << 16);
  double sum = 0;
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    heap.emplace(next() % 1'000'000, i);
    if (heap.size() > 20'000) {
      counts[heap.top().second % 50'000] += 1.0;
      heap.pop();
    }
    table[next() & 0xffff] += 1.0;
    if ((i & 1023) == 0) {
      for (const double v : table) sum += v;
    }
  }
  // Keep the result observable so the work cannot be optimized away.
  volatile double sink = sum + double(counts.size());
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
