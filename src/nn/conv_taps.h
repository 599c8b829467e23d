#ifndef TASFAR_NN_CONV_TAPS_H_
#define TASFAR_NN_CONV_TAPS_H_

#include <algorithm>
#include <cstddef>

namespace tasfar::detail {

/// Half-open index range [lo, hi); empty when lo == hi.
struct IndexRange {
  size_t lo = 0;
  size_t hi = 0;
};

/// The j in [0, count) for which `offset + j * step` lies in [0, extent).
///
/// The direct convolution kernels use it to hoist bounds checks out of
/// their inner loops: with offset = k * dilation - padding and step =
/// stride it yields the output positions a kernel tap k reaches inside the
/// input; with offset = out * stride - padding and step = dilation it
/// yields the taps of one output position that land inside the input.
/// The in-range set is contiguous, so skipping the rest matches the
/// per-element `continue` of a bounds-checked loop exactly.
inline IndexRange InBoundsRange(long offset, size_t step, size_t extent,
                                size_t count) {
  const long s = static_cast<long>(step);
  // offset + j*s >= 0  <=>  j >= ceil(-offset / s).
  const long lo = offset >= 0 ? 0 : (-offset + s - 1) / s;
  // offset + j*s <= extent - 1  <=>  j <= floor(last / s).
  const long last = static_cast<long>(extent) - 1 - offset;
  const long hi =
      last < 0 ? 0 : std::min(last / s + 1, static_cast<long>(count));
  return {static_cast<size_t>(std::min(lo, hi)), static_cast<size_t>(hi)};
}

}  // namespace tasfar::detail

#endif  // TASFAR_NN_CONV_TAPS_H_
