// Dense row-major matrix of doubles: the numeric substrate replacing PyTorch
// tensors. Sized for the paper's scales (embedding/hidden dims 8..128), so
// simplicity and correctness are preferred over blocking/vectorization.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace asteria::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0) {
    assert(rows >= 0 && cols >= 0);
  }
  Matrix(int rows, int cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  }

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }
  static Matrix Filled(int rows, int cols, double value);
  // Column vector (n x 1).
  static Matrix ColVector(std::vector<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  double& operator()(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) + static_cast<std::size_t>(c)];
  }
  double operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) + static_cast<std::size_t>(c)];
  }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double value);
  void SetZero() { Fill(0.0); }

  // y = (*this) · x, with x a dense cols()-length vector and y rows() long.
  // Each output row accumulates strictly in ascending-k order starting from
  // 0.0 — the same per-row association as MatMul with a (cols x 1) right
  // operand — so a row of a fused/stacked weight matrix yields a bitwise
  // identical sum to the unstacked per-gate MatMul. Rows are processed four
  // at a time (independent accumulator chains) purely for instruction-level
  // parallelism; the within-row order is unchanged.
  void Gemv(const double* x, double* y) const;

  // Gemv extended to multiple right-hand sides (the batch-scoring path of
  // SearchIndex): c (m x n, row-major) = a (m x k, row-major) · b (k x n,
  // row-major). Every c element accumulates in ascending-k order from 0.0,
  // i.e. exactly the Gemv/MatMul per-element association, so results are
  // bitwise identical to calling Gemv once per column of b (and to MatMul).
  // Rows are blocked four at a time for instruction-level parallelism.
  // Buffers must not alias.
  static void GemmRaw(const double* a, const double* b, double* c, int m,
                      int k, int n);

  // this += other (shapes must match).
  void AddInPlace(const Matrix& other);
  // this += scale * other.
  void AddScaled(const Matrix& other, double scale);
  void Scale(double factor);

  double SumAll() const;
  double MaxAbs() const;
  // Frobenius norm.
  double Norm() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

// out = a * b (matrix product). Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);
// out = a^T * b.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
// out = a * b^T.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);
// Elementwise product.
Matrix Hadamard(const Matrix& a, const Matrix& b);
// Elementwise sum / difference.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
// Dot product of two same-shaped matrices viewed as flat vectors.
double Dot(const Matrix& a, const Matrix& b);
// True when none of the n values is NaN or Inf: the gate every encoding
// passes before it is stored, cached or scored.
bool AllFinite(const double* data, std::size_t n);

}  // namespace asteria::nn
