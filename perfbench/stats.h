// Exact sample statistics and span self-time accounting for the benchmark.
//
// Every timing quantile the benchmark reports comes from its own sorted raw
// samples (never from obs::Histogram's bucketed estimate), and every
// per-layer time that is a "self time" is a span's duration minus the part
// of it its child spans cover.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples`, interpolating linearly
/// between the two closest ranks of the sorted samples (the "type 7"
/// definition). 0 for an empty input.
double Quantile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples);
double Max(const std::vector<double>& samples);

/// One closed span, reduced to what self-time accounting needs.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

/// Spans of `events` whose name starts with `prefix`; the others are
/// dropped, so library-internal spans never count as a benchmark layer's
/// children.
std::vector<Span> SpansWithPrefix(const std::vector<tasfar::obs::TraceEvent>& events,
                                  const std::string& prefix);

/// Microseconds of `parent`'s interval that no direct child in `spans`
/// covers. Overlapping children count once; children are clipped to the
/// parent's interval.
uint64_t SelfTimeUs(const Span& parent, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
