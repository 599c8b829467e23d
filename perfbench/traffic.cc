#include "traffic.h"

#include "obs/trace.h"

namespace perfbench {

OpenLoop::OpenLoop(double rate_hz, std::function<bool()> request)
    : rate_hz_(rate_hz), request_(std::move(request)) {
  thread_ = std::thread([this] { Run(); });
}

OpenLoop::~OpenLoop() { Stop(); }

void OpenLoop::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::vector<RequestSample> OpenLoop::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

void OpenLoop::Run() {
  const Clock::time_point start = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / rate_hz_);
  for (size_t k = 0; !stop_.load(); ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(k));
    std::this_thread::sleep_until(due);
    if (stop_.load()) break;
    RequestSample s;
    s.traced = tasfar::obs::TracingEnabled();
    const Clock::time_point sent = Clock::now();
    try {
      s.ok = request_();
    } catch (...) {
      s.ok = false;  // A throwing request is a failed one.
    }
    const Clock::time_point done = Clock::now();
    s.late_ms = MsBetween(due, sent);
    s.rtt_ms = MsBetween(sent, done);
    s.from_due_ms = MsBetween(due, done);
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(s);
  }
}

}  // namespace perfbench
