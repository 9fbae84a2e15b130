#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"

namespace gb::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double calibration_ms() {
  // xorshift64 over a fixed count: integer-only, no memory traffic, no
  // allocation — a probe of the core's speed and nothing else.
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t v = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
    sink ^= v;
    samples.push_back(ms_since(t0));
  }
  // Keep the loop observable so it cannot be folded away.
  if (sink == 0) samples.push_back(0);
  return median(std::move(samples));
}

double memory_calibration_ms() {
  std::vector<char> from(64u << 20, 1);
  std::vector<char> to(1u << 20);
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t off = 0; off < from.size(); off += to.size()) {
      std::memcpy(to.data(), from.data() + off, to.size());
    }
    samples.push_back(ms_since(t0));
  }
  // Keep the copies observable so they cannot be folded away.
  if (to[to.size() / 2] == 0) samples.push_back(0);
  return median(std::move(samples));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Period of the wake-up probe: short next to any op, long next to the
/// few microseconds one wake-up costs.
constexpr std::chrono::microseconds kWakePeriod{2000};

WakeProbe::WakeProbe()
    : thread_([this] {
        auto due = Clock::now();
        while (!stop_.load(std::memory_order_relaxed)) {
          due += kWakePeriod;
          std::this_thread::sleep_until(due);
          const auto now = Clock::now();
          lateness_ms_.push_back(
              std::chrono::duration<double, std::milli>(now - due).count());
          // After a long stall, wait for the next period, not for every
          // period that was missed.
          if (now - due > kWakePeriod) due = now;
        }
      }) {}

WakeProbe::~WakeProbe() { (void)stop(); }

std::vector<double> WakeProbe::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return std::move(lateness_ms_);
}

}  // namespace gb::perfbench
