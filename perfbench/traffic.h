// Load generators: an open loop that issues requests on a fixed schedule
// from its own thread, and the per-request samples it records.
#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The light tenant's rate on every workload. Its one connection blocks,
/// so it stays an open loop only while a reply takes less than its period.
/// Of the two rates tried on serve-noisy, 50 req/s fell behind schedule
/// beside 2,000-row requests (its backlog, not the server, then set the
/// latency); 20 req/s kept to it. The adapt workloads use the same rate,
/// so that the light tenant is one tenant everywhere.
constexpr double kLightRateHz = 20.0;

/// One request of an open loop.
struct RequestSample {
  bool ok = false;         ///< Succeeded and passed its checks.
  bool traced = false;     ///< Tracing was on when it was sent.
  double from_due_ms = 0;  ///< Due time to reply: what a user waits.
  double rtt_ms = 0;       ///< Send to reply, without generator lateness.
  double late_ms = 0;      ///< How late the generator sent it.
};

/// Calls `request` at a fixed rate from a dedicated thread until Stop().
/// Requests are due at start + k / rate_hz whatever the previous one took,
/// so a stall shows as time from due on every request queued behind it.
class OpenLoop {
 public:
  OpenLoop(double rate_hz, std::function<bool()> request);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Stops issuing and joins the thread.
  void Stop();
  std::vector<RequestSample> Samples() const;

 private:
  void Run();

  const double rate_hz_;
  const std::function<bool()> request_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<RequestSample> samples_;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
