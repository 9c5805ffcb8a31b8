#include "ops.hh"

#include <cmath>

#include "elementwise.hh"
#include "gemm.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

/** Flatten leading (batch) dims of a tensor with >= 2 dims. */
std::int64_t
batchCount(const Tensor &t)
{
    std::int64_t n = 1;
    for (int d = 0; d < t.rank() - 2; ++d)
        n *= t.dim(d);
    return n;
}

} // namespace

Tensor
linearForward(const Tensor &input, const Tensor &weight)
{
    PRIMEPAR_ASSERT(input.rank() >= 2 && weight.rank() == 2,
                    "linearForward rank mismatch");
    const std::int64_t m_total = input.numel() / input.dim(input.rank() - 1);
    const std::int64_t n = input.dim(input.rank() - 1);
    PRIMEPAR_ASSERT(weight.dim(0) == n, "linearForward inner dim mismatch: ",
                    input.shapeString(), " x ", weight.shapeString());
    const std::int64_t k = weight.dim(1);

    Shape out_shape = input.shape();
    out_shape.back() = k;
    Tensor out(out_shape);

    // out[i, jk] = sum_jn in[i, jn] * w[jn, jk], ascending jn.
    gemmAccumulate(input.data(), weight.data(), out.data(), m_total, k, n,
                   /*trans_a=*/false, /*trans_b=*/false);
    return out;
}

Tensor
linearBackward(const Tensor &d_output, const Tensor &weight)
{
    PRIMEPAR_ASSERT(d_output.rank() >= 2 && weight.rank() == 2,
                    "linearBackward rank mismatch");
    const std::int64_t k = d_output.dim(d_output.rank() - 1);
    PRIMEPAR_ASSERT(weight.dim(1) == k, "linearBackward inner dim mismatch");
    const std::int64_t n = weight.dim(0);
    const std::int64_t m_total = d_output.numel() / k;

    Shape out_shape = d_output.shape();
    out_shape.back() = n;
    Tensor out(out_shape);

    // gi[i, jn] = sum_jk go[i, jk] * w[jn, jk], ascending jk.
    gemmAccumulate(d_output.data(), weight.data(), out.data(), m_total, n,
                   k, /*trans_a=*/false, /*trans_b=*/true);
    return out;
}

Tensor
linearGradient(const Tensor &input, const Tensor &d_output)
{
    PRIMEPAR_ASSERT(input.rank() >= 2 && d_output.rank() == input.rank(),
                    "linearGradient rank mismatch");
    const std::int64_t n = input.dim(input.rank() - 1);
    const std::int64_t k = d_output.dim(d_output.rank() - 1);
    const std::int64_t m_total = input.numel() / n;
    PRIMEPAR_ASSERT(d_output.numel() / k == m_total,
                    "linearGradient row count mismatch");

    Tensor dw(Shape{n, k});
    // dw[jn, jk] = sum_i in[i, jn] * go[i, jk], ascending i.
    gemmAccumulate(input.data(), d_output.data(), dw.data(), n, k, m_total,
                   /*trans_a=*/true, /*trans_b=*/false);
    return dw;
}

Tensor
batchedMatmul(const Tensor &a, const Tensor &b, bool trans_a, bool trans_b)
{
    PRIMEPAR_ASSERT(a.rank() >= 2 && b.rank() == a.rank(),
                    "batchedMatmul rank mismatch");
    const std::int64_t batches = batchCount(a);
    PRIMEPAR_ASSERT(batches == batchCount(b),
                    "batchedMatmul batch mismatch: ", a.shapeString(),
                    " vs ", b.shapeString());

    const std::int64_t a_rows = a.dim(a.rank() - 2);
    const std::int64_t a_cols = a.dim(a.rank() - 1);
    const std::int64_t b_rows = b.dim(b.rank() - 2);
    const std::int64_t b_cols = b.dim(b.rank() - 1);

    const std::int64_t m = trans_a ? a_cols : a_rows;
    const std::int64_t inner = trans_a ? a_rows : a_cols;
    const std::int64_t inner_b = trans_b ? b_cols : b_rows;
    const std::int64_t k = trans_b ? b_rows : b_cols;
    PRIMEPAR_ASSERT(inner == inner_b, "batchedMatmul inner dim mismatch: ",
                    a.shapeString(), " x ", b.shapeString());

    Shape out_shape(a.shape().begin(), a.shape().end() - 2);
    out_shape.push_back(m);
    out_shape.push_back(k);
    Tensor out(out_shape);

    const std::int64_t a_sz = a_rows * a_cols;
    const std::int64_t b_sz = b_rows * b_cols;
    const std::int64_t o_sz = m * k;
    const float *ap = a.data();
    const float *bp = b.data();
    float *op = out.data();

    for (std::int64_t bt = 0; bt < batches; ++bt)
        gemmAccumulate(ap + bt * a_sz, bp + bt * b_sz, op + bt * o_sz, m,
                       k, inner, trans_a, trans_b);
    return out;
}

Tensor
softmaxLastDim(const Tensor &input)
{
    const std::int64_t cols = input.dim(input.rank() - 1);
    const std::int64_t rows = input.numel() / cols;
    Tensor out(input.shape());
    const float *in = input.data();
    float *o = out.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        const float *row = in + r * cols;
        float *orow = o + r * cols;
        float mx = row[0];
        for (std::int64_t c = 1; c < cols; ++c)
            mx = std::max(mx, row[c]);
        float sum = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c) {
            orow[c] = std::exp(row[c] - mx);
            sum += orow[c];
        }
        const float inv = 1.0f / sum;
        for (std::int64_t c = 0; c < cols; ++c)
            orow[c] *= inv;
    }
    return out;
}

Tensor
softmaxBackward(const Tensor &output, const Tensor &d_output)
{
    PRIMEPAR_ASSERT(output.shape() == d_output.shape(),
                    "softmaxBackward shape mismatch");
    const std::int64_t cols = output.dim(output.rank() - 1);
    const std::int64_t rows = output.numel() / cols;
    Tensor out(output.shape());
    const float *y = output.data();
    const float *gy = d_output.data();
    float *gx = out.data();
    for (std::int64_t r = 0; r < rows; ++r) {
        const float *yrow = y + r * cols;
        const float *grow = gy + r * cols;
        float dot = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c)
            dot += yrow[c] * grow[c];
        float *orow = gx + r * cols;
        for (std::int64_t c = 0; c < cols; ++c)
            orow[c] = yrow[c] * (grow[c] - dot);
    }
    return out;
}

LayerNormResult
layerNormForward(const Tensor &input, const Tensor &gamma,
                 const Tensor &beta, float eps)
{
    const std::int64_t cols = input.dim(input.rank() - 1);
    PRIMEPAR_ASSERT(gamma.numel() == cols && beta.numel() == cols,
                    "layerNorm parameter size mismatch");
    const std::int64_t rows = input.numel() / cols;

    LayerNormResult res{Tensor(input.shape()), Tensor(Shape{rows}),
                        Tensor(Shape{rows})};
    const float *in = input.data();
    const float *g = gamma.data();
    const float *b = beta.data();
    float *o = res.output.data();
    float *mean = res.mean.data();
    float *inv_std = res.inv_std.data();

    for (std::int64_t r = 0; r < rows; ++r) {
        const float *row = in + r * cols;
        float mu = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c)
            mu += row[c];
        mu /= cols;
        float var = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c)
            var += (row[c] - mu) * (row[c] - mu);
        var /= cols;
        const float is = 1.0f / std::sqrt(var + eps);
        mean[r] = mu;
        inv_std[r] = is;
        float *orow = o + r * cols;
        for (std::int64_t c = 0; c < cols; ++c)
            orow[c] = (row[c] - mu) * is * g[c] + b[c];
    }
    return res;
}

LayerNormGrads
layerNormBackward(const Tensor &input, const LayerNormResult &fwd,
                  const Tensor &gamma, const Tensor &d_output)
{
    const std::int64_t cols = input.dim(input.rank() - 1);
    const std::int64_t rows = input.numel() / cols;

    LayerNormGrads grads{Tensor(input.shape()), Tensor(Shape{cols}),
                         Tensor(Shape{cols})};
    const float *in = input.data();
    const float *g = gamma.data();
    const float *gy = d_output.data();
    const float *mean = fwd.mean.data();
    const float *inv_std = fwd.inv_std.data();
    float *gx = grads.d_input.data();
    float *gg = grads.d_gamma.data();
    float *gb = grads.d_beta.data();

    for (std::int64_t r = 0; r < rows; ++r) {
        const float *row = in + r * cols;
        const float *grow = gy + r * cols;
        const float mu = mean[r];
        const float is = inv_std[r];

        float sum_gy = 0.0f, sum_gy_xhat = 0.0f;
        for (std::int64_t c = 0; c < cols; ++c) {
            const float xhat = (row[c] - mu) * is;
            const float gyg = grow[c] * g[c];
            sum_gy += gyg;
            sum_gy_xhat += gyg * xhat;
            gg[c] += grow[c] * xhat;
            gb[c] += grow[c];
        }
        float *orow = gx + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
            const float xhat = (row[c] - mu) * is;
            const float gyg = grow[c] * g[c];
            orow[c] =
                is * (gyg - sum_gy / cols - xhat * sum_gy_xhat / cols);
        }
    }
    return grads;
}

Tensor
gelu(const Tensor &input)
{
    Tensor out(input.shape());
    geluKernel(input.data(), out.data(), input.numel());
    return out;
}

Tensor
geluBackward(const Tensor &input, const Tensor &d_output)
{
    PRIMEPAR_ASSERT(input.shape() == d_output.shape(),
                    "geluBackward shape mismatch");
    Tensor out(input.shape());
    geluBackwardKernel(input.data(), d_output.data(), out.data(),
                       input.numel());
    return out;
}

Tensor
relu(const Tensor &input)
{
    Tensor out(input.shape());
    const float *in = input.data();
    float *o = out.data();
    for (std::int64_t i = 0; i < input.numel(); ++i)
        o[i] = in[i] > 0.0f ? in[i] : 0.0f;
    return out;
}

Tensor
reluBackward(const Tensor &input, const Tensor &d_output)
{
    PRIMEPAR_ASSERT(input.shape() == d_output.shape(),
                    "reluBackward shape mismatch");
    Tensor out(input.shape());
    const float *in = input.data();
    const float *gy = d_output.data();
    float *o = out.data();
    for (std::int64_t i = 0; i < input.numel(); ++i)
        o[i] = in[i] > 0.0f ? gy[i] : 0.0f;
    return out;
}

Tensor
addTensors(const Tensor &a, const Tensor &b)
{
    Tensor out = a;
    out.add(b);
    return out;
}

} // namespace primepar
