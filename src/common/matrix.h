// Dense row-major matrix and vector math used throughout the library:
// products, powers, linear solves, and stochastic-matrix helpers.
#ifndef PUFFERFISH_COMMON_MATRIX_H_
#define PUFFERFISH_COMMON_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/status.h"

namespace pf {

class ThreadPool;

/// A column vector of doubles.
using Vector = std::vector<double>;

/// \brief Dense row-major matrix of doubles.
///
/// Sized for the problems in this library (state spaces k <= a few hundred):
/// O(n^3) algorithms (LU, Jacobi eigensolver) are used deliberately for
/// robustness and zero dependencies.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Creates a matrix from nested initializer lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix Identity(std::size_t n);
  /// Matrix with `diag` on the diagonal, zero elsewhere.
  static Matrix Diagonal(const Vector& diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the first entry of row `r` (rows are contiguous).
  double* RowPtr(std::size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(std::size_t r) const { return data_.data() + r * cols_; }

  /// \brief Reshapes to rows x cols, reusing capacity; entry values are
  /// unspecified afterwards. For Into-style kernels that overwrite every
  /// cell — lets a retained output matrix be reused without a zero-fill or
  /// a reallocation.
  void ResizeUninitialized(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Row `r` as a vector copy.
  Vector Row(std::size_t r) const;
  /// Column `c` as a vector copy.
  Vector Col(std::size_t c) const;

  Matrix Transpose() const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;

  /// Matrix-vector product (this * v).
  Vector Apply(const Vector& v) const;
  /// Vector-matrix product (v^T * this), returned as a vector.
  Vector ApplyLeft(const Vector& v) const;
  /// ApplyLeft writing into a caller-retained vector (capacity reused; no
  /// allocation once out has seen this width). out must not alias v.
  void ApplyLeftInto(const Vector& v, Vector* out) const;

  /// This matrix raised to integer power p >= 0 by repeated squaring.
  Matrix Power(unsigned p) const;

  /// Solves A x = b by Gaussian elimination with partial pivoting.
  /// Fails with NumericalError if A is (numerically) singular.
  Result<Vector> Solve(const Vector& b) const;

  /// Matrix inverse via Gauss-Jordan; NumericalError if singular.
  Result<Matrix> Inverse() const;

  /// Max absolute entry (infinity norm of the flattened matrix).
  double MaxAbs() const;
  /// True if every entry is finite.
  bool AllFinite() const;

  /// True if all entries are >= -tol and every row sums to 1 within tol.
  bool IsRowStochastic(double tol = 1e-9) const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  std::size_t rows_, cols_;
  std::vector<double> data_;
};

/// \brief Instruction set the blocked product kernels dispatch to. The
/// portable kernel is always available; kAvx2 is an explicitly vectorized
/// 4-wide double kernel selected at runtime when the CPU supports it. At
/// kAvx2 the columnar noise kernel (BatchLaplaceNoise) also uses AVX-512F
/// and AVX-512DQ when the CPU has them; there is no separate level for
/// that, so kAvx2 stays the highest level DetectedSimdLevel() reports.
enum class SimdLevel {
  kPortable,
  kAvx2,
};

/// Human-readable level name ("portable", "avx2").
const char* SimdLevelName(SimdLevel level);

/// Highest level this CPU supports (probed once per process).
SimdLevel DetectedSimdLevel();

/// \brief Level the kernels currently use: the detected level unless
/// overridden by SetSimdLevel. Every level computes bit-identical results
/// (see the summation-order note on MultiplyBlocked), so the override
/// exists for benchmarks and tests comparing the paths, not correctness.
SimdLevel ActiveSimdLevel();

/// \brief Overrides the dispatch level, clamped to DetectedSimdLevel()
/// (requesting kAvx2 on a non-AVX2 CPU leaves the portable kernel active).
/// Process-wide; not meant to be flipped concurrently with in-flight
/// multiplies.
void SetSimdLevel(SimdLevel level);

/// \brief Reference O(mnk) product (i,k,j loop order, zero-skip on the
/// left operand). Ground truth for the blocked kernel's tests; not used on
/// hot paths.
Matrix MultiplyNaive(const Matrix& lhs, const Matrix& rhs);

/// \brief Cache-conscious product, runtime-dispatched over SimdLevel. The
/// portable kernel transposes rhs once and reduces contiguous row pairs in
/// 4-wide column panels (independent scalar accumulators); the AVX2 kernel
/// reads rhs untransposed, broadcasting one lhs entry against 4-wide
/// column vectors of rhs rows (no FMA — the library builds with
/// -ffp-contract=off so mul+add never fuses).
///
/// Summation-order policy: EVERY level accumulates each output entry's
/// k-terms in ascending order into a single (scalar or lane) accumulator —
/// the same order as the naive kernel — so no dispatch choice ever
/// reassociates a sum. For finite inputs the result equals MultiplyNaive
/// entrywise, bit-identically for matrices without negative-zero products
/// (e.g. stochastic matrices and their powers), which the tests pin. Used
/// by operator*, Power and ParallelMultiply.
Matrix MultiplyBlocked(const Matrix& lhs, const Matrix& rhs);

/// \brief MultiplyBlocked writing into a caller-retained output (resized,
/// capacity reused — no allocation once out has seen this shape). out must
/// not alias lhs or rhs. Scratch (the portable kernel's transpose) lives
/// in a thread-local buffer, so a warm thread performs zero heap
/// allocations here.
void MultiplyBlockedInto(const Matrix& lhs, const Matrix& rhs, Matrix* out);

/// \brief Row-parallel blocked product: output rows fan out across `pool`
/// (inline when pool is null or the problem is too small to amortize a
/// wake-up). Bit-identical to MultiplyBlocked for every thread count: rows
/// are independent and each is computed by the same kernel.
Matrix ParallelMultiply(const Matrix& lhs, const Matrix& rhs,
                        ThreadPool* pool);

/// ParallelMultiply writing into a caller-retained output (see
/// MultiplyBlockedInto for the aliasing and allocation rules).
void ParallelMultiplyInto(const Matrix& lhs, const Matrix& rhs,
                          ThreadPool* pool, Matrix* out);

/// Elementwise helpers on vectors. All require matching sizes.
double Dot(const Vector& a, const Vector& b);
Vector Add(const Vector& a, const Vector& b);
Vector Subtract(const Vector& a, const Vector& b);
Vector Scale(const Vector& a, double s);
/// L1 norm: sum of absolute values.
double NormL1(const Vector& a);
/// L2 (Euclidean) norm.
double NormL2(const Vector& a);
/// Infinity norm: max absolute value.
double NormInf(const Vector& a);
/// L1 distance between two equal-length vectors.
double DistanceL1(const Vector& a, const Vector& b);

/// True if entries are nonnegative (>= -tol) and sum to 1 within tol.
bool IsProbabilityVector(const Vector& v, double tol = 1e-9);

}  // namespace pf

#endif  // PUFFERFISH_COMMON_MATRIX_H_
