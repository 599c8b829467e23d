#ifndef TASFAR_TESTS_SUPPORT_GRADIENT_CHECK_H_
#define TASFAR_TESTS_SUPPORT_GRADIENT_CHECK_H_

#include "nn/sequential.h"
#include "nn/trainer.h"

namespace tasfar {

/// Result of a finite-difference gradient check.
struct GradCheckResult {
  double max_abs_error = 0.0;  ///< Max |analytic - numeric| over all params.
  double max_rel_error = 0.0;  ///< Max relative error (guarded denominator).
  size_t checked = 0;          ///< Number of scalar parameters compared.
};

/// Compares the analytic parameter gradients of `model` under `loss` on
/// (inputs, targets) against central finite differences.
///
/// Layers with stochastic forward passes (Dropout in training mode) must
/// not be present, since the two evaluations per parameter must see the
/// same function; the check runs the model with training=false.
GradCheckResult CheckGradients(Sequential* model, const Tensor& inputs,
                               const Tensor& targets, const LossFn& loss,
                               double epsilon = 1e-5);

}  // namespace tasfar

#endif  // TASFAR_TESTS_SUPPORT_GRADIENT_CHECK_H_
