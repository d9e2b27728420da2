#include "nn/matrix.h"

#include <cmath>

namespace asteria::nn {

Matrix Matrix::Filled(int rows, int cols, double value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::ColVector(std::vector<double> values) {
  const int n = static_cast<int>(values.size());
  return Matrix(n, 1, std::move(values));
}

void Matrix::Gemv(const double* x, double* y) const {
  const int m = rows_;
  const int n = cols_;
  const double* a = data_.data();
  int i = 0;
  // Four rows per pass: four independent accumulator chains hide the FP-add
  // latency that serializes a single row's sum, and each x[k] load is shared.
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int k = 0; k < n; ++k) {
      const double xk = x[k];
      s0 += r0[k] * xk;
      s1 += r1[k] * xk;
      s2 += r2[k] * xk;
      s3 += r3[k] * xk;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < m; ++i) {
    const double* row = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    double sum = 0.0;
    for (int k = 0; k < n; ++k) sum += row[k] * x[k];
    y[i] = sum;
  }
}

void Matrix::GemmRaw(const double* a, const double* b, double* c, int m,
                     int k, int n) {
  // Four rows of A per pass — the Gemv blocking applied per column of B.
  // Each c element keeps its own accumulator chain over ascending k, so the
  // per-element association matches Gemv/MatMul bit for bit.
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
    const double* r1 = r0 + k;
    const double* r2 = r1 + k;
    const double* r3 = r2 + k;
    for (int j = 0; j < n; ++j) {
      const double* bj = b + j;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const double bv = bj[static_cast<std::size_t>(kk) * static_cast<std::size_t>(n)];
        s0 += r0[kk] * bv;
        s1 += r1[kk] * bv;
        s2 += r2[kk] * bv;
        s3 += r3[kk] * bv;
      }
      double* cj = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n) + j;
      cj[0] = s0;
      cj[static_cast<std::size_t>(n)] = s1;
      cj[2 * static_cast<std::size_t>(n)] = s2;
      cj[3 * static_cast<std::size_t>(n)] = s3;
    }
  }
  for (; i < m; ++i) {
    const double* row = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(k);
    for (int j = 0; j < n; ++j) {
      const double* bj = b + j;
      double sum = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        sum += row[kk] * bj[static_cast<std::size_t>(kk) * static_cast<std::size_t>(n)];
      }
      c[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) + j] = sum;
    }
  }
}

void Matrix::Fill(double value) {
  for (auto& x : data_) x = value;
}

void Matrix::AddInPlace(const Matrix& other) {
  assert(SameShape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  assert(SameShape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Matrix::Scale(double factor) {
  for (auto& x : data_) x *= factor;
}

double Matrix::SumAll() const {
  double sum = 0.0;
  for (double x : data_) sum += x;
  return sum;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

double Matrix::Norm() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return std::sqrt(sum);
}

// The inner loops deliberately have no `a == 0.0` skip: the operands here
// are dense trained weights, where a data-dependent branch mispredicts far
// more than it saves.
Matrix MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      for (int j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      for (int j = 0; j < b.cols(); ++j) {
        out(i, j) += aki * b(k, j);
      }
    }
  }
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (int k = 0; k < a.cols(); ++k) sum += a(i, k) * b(j, k);
      out(i, j) = sum;
    }
  }
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  assert(a.SameShape(b));
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  assert(a.SameShape(b));
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  assert(a.SameShape(b));
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

double Dot(const Matrix& a, const Matrix& b) {
  assert(a.SameShape(b));
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

bool AllFinite(const double* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

}  // namespace asteria::nn
