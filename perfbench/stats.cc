#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Max(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

std::vector<Span> SpansWithPrefix(
    const std::vector<tasfar::obs::TraceEvent>& events,
    const std::string& prefix) {
  std::vector<Span> out;
  for (const tasfar::obs::TraceEvent& ev : events) {
    if (ev.name == nullptr) continue;
    const std::string name(ev.name);
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    out.push_back(Span{name, ev.span_id, ev.parent_span_id, ev.start_us,
                       ev.dur_us});
  }
  return out;
}

uint64_t SelfTimeUs(const Span& parent, const std::vector<Span>& spans) {
  const uint64_t begin = parent.start_us;
  const uint64_t end = parent.start_us + parent.dur_us;
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != parent.id || s.id == parent.id) continue;
    const uint64_t b = std::max(begin, s.start_us);
    const uint64_t e = std::min(end, s.start_us + s.dur_us);
    if (e > b) covered.emplace_back(b, e);
  }
  std::sort(covered.begin(), covered.end());
  uint64_t union_us = 0;
  uint64_t cur_b = 0;
  uint64_t cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : covered) {
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) union_us += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) union_us += cur_e - cur_b;
  return parent.dur_us - union_us;
}

}  // namespace perfbench
