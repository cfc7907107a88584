// Dense vector kernels used by the power-iteration inner loop.
//
// Kept deliberately simple (no SIMD intrinsics): at the paper's scales the
// sparse gather dominates; these are memory-bound loops the compiler
// vectorizes on its own under -O2/-O3.

#ifndef D2PR_LINALG_VEC_OPS_H_
#define D2PR_LINALG_VEC_OPS_H_

#include <span>
#include <vector>

namespace d2pr {

/// \brief Sum of elements.
double Sum(std::span<const double> values);

/// \brief Dot product; sizes must match.
double Dot(std::span<const double> a, std::span<const double> b);

/// \brief L1 norm (sum of absolute values).
double NormL1(std::span<const double> values);

/// \brief L2 (Euclidean) norm.
double NormL2(std::span<const double> values);

/// \brief Maximum absolute value.
double NormLInf(std::span<const double> values);

/// \brief Sum |a_i - b_i|; the power-iteration convergence criterion.
double DiffL1(std::span<const double> a, std::span<const double> b);

/// \brief Max |a_i - b_i|.
double DiffLInf(std::span<const double> a, std::span<const double> b);

/// \brief out_i += alpha * x_i.
void Axpy(double alpha, std::span<const double> x, std::span<double> out);

/// \brief values_i *= alpha.
void Scale(double alpha, std::span<double> values);

/// \brief Fills `values` with `value`.
void Fill(double value, std::span<double> values);

/// \brief Scales `values` so its L1 norm becomes 1 (no-op on zero vectors);
/// returns the original L1 norm.
double NormalizeL1(std::span<double> values);

/// \brief Constant vector 1/n (the paper's uniform teleportation vector).
std::vector<double> UniformVector(size_t n);

}  // namespace d2pr

#endif  // D2PR_LINALG_VEC_OPS_H_
