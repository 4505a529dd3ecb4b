// det-lint-path: src/gs/row_kernels_fixture.cc
// det-lint-expect: double-accum
//
// Double-precision accumulation inside a float splat kernel: the
// widened sum drifts away from the fp32 arithmetic of the scalar twin,
// the AVX2 body and the serial reference, which must give the same
// bytes.
#include <cstddef>

float
rowSum(const float *row, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += row[i];
    return static_cast<float>(acc);
}
