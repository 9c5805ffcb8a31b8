#include "gemm.hh"

#include <algorithm>
#include <cmath>

#include "elementwise.hh"
#include "support/logging.hh"

namespace primepar {

namespace naive {

namespace {

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
    const std::int64_t m_total =
        input.numel() / input.dim(input.rank() - 1);
    const std::int64_t n = input.dim(input.rank() - 1);
    const std::int64_t k = weight.dim(1);
    Shape out_shape = input.shape();
    out_shape.back() = k;
    Tensor out(out_shape);

    const float *in = input.data();
    const float *w = weight.data();
    float *o = out.data();
    for (std::int64_t i = 0; i < m_total; ++i) {
        for (std::int64_t jn = 0; jn < n; ++jn) {
            const float v = in[i * n + jn];
            const float *wrow = w + jn * k;
            float *orow = o + i * k;
            for (std::int64_t jk = 0; jk < k; ++jk)
                orow[jk] += v * wrow[jk];
        }
    }
    return out;
}

Tensor
linearBackward(const Tensor &d_output, const Tensor &weight)
{
    const std::int64_t k = d_output.dim(d_output.rank() - 1);
    const std::int64_t n = weight.dim(0);
    const std::int64_t m_total = d_output.numel() / k;
    Shape out_shape = d_output.shape();
    out_shape.back() = n;
    Tensor out(out_shape);

    const float *go = d_output.data();
    const float *w = weight.data();
    float *gi = out.data();
    for (std::int64_t i = 0; i < m_total; ++i) {
        for (std::int64_t jn = 0; jn < n; ++jn) {
            const float *wrow = w + jn * k;
            const float *grow = go + i * k;
            float acc = gi[i * n + jn];
            for (std::int64_t jk = 0; jk < k; ++jk)
                acc += grow[jk] * wrow[jk];
            gi[i * n + jn] = acc;
        }
    }
    return out;
}

Tensor
linearGradient(const Tensor &input, const Tensor &d_output)
{
    const std::int64_t n = input.dim(input.rank() - 1);
    const std::int64_t k = d_output.dim(d_output.rank() - 1);
    const std::int64_t m_total = input.numel() / n;
    Tensor dw(Shape{n, k});

    const float *in = input.data();
    const float *go = d_output.data();
    float *g = dw.data();
    for (std::int64_t i = 0; i < m_total; ++i) {
        for (std::int64_t jn = 0; jn < n; ++jn) {
            const float v = in[i * n + jn];
            const float *grow = go + i * k;
            float *grad_row = g + jn * k;
            for (std::int64_t jk = 0; jk < k; ++jk)
                grad_row[jk] += v * grow[jk];
        }
    }
    return dw;
}

Tensor
batchedMatmul(const Tensor &a, const Tensor &b, bool trans_a, bool trans_b)
{
    const std::int64_t batches = batchCount(a);
    const std::int64_t a_rows = a.dim(a.rank() - 2);
    const std::int64_t a_cols = a.dim(a.rank() - 1);
    const std::int64_t b_rows = b.dim(b.rank() - 2);
    const std::int64_t b_cols = b.dim(b.rank() - 1);
    const std::int64_t m = trans_a ? a_cols : a_rows;
    const std::int64_t inner = trans_a ? a_rows : a_cols;
    const std::int64_t k = trans_b ? b_rows : b_cols;

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

    auto a_at = [&](std::int64_t base, std::int64_t i, std::int64_t j) {
        return trans_a ? ap[base + j * a_cols + i]
                       : ap[base + i * a_cols + j];
    };
    auto b_at = [&](std::int64_t base, std::int64_t i, std::int64_t j) {
        return trans_b ? bp[base + j * b_cols + i]
                       : bp[base + i * b_cols + j];
    };

    for (std::int64_t bt = 0; bt < batches; ++bt) {
        const std::int64_t abase = bt * a_sz;
        const std::int64_t bbase = bt * b_sz;
        const std::int64_t obase = bt * o_sz;
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < k; ++j) {
                float acc = 0.0f;
                for (std::int64_t l = 0; l < inner; ++l)
                    acc += a_at(abase, i, l) * b_at(bbase, l, j);
                op[obase + i * k + j] = acc;
            }
        }
    }
    return out;
}

void
contract(const Tensor &a, const std::vector<int> &a_dims, const Tensor &b,
         const std::vector<int> &b_dims, Tensor &out,
         const std::vector<int> &out_dims)
{
    // Verbatim seed odometer: output labels outermost, then leftover
    // a labels, then leftover b labels, innermost last.
    std::vector<int> loop_labels = out_dims;
    for (int l : a_dims) {
        if (std::find(loop_labels.begin(), loop_labels.end(), l) ==
            loop_labels.end())
            loop_labels.push_back(l);
    }
    for (int l : b_dims) {
        if (std::find(loop_labels.begin(), loop_labels.end(), l) ==
            loop_labels.end())
            loop_labels.push_back(l);
    }

    auto strides_for = [&](const std::vector<int> &labels,
                           const Tensor &t) {
        std::vector<std::int64_t> by_axis(labels.size(), 1);
        for (int i = static_cast<int>(labels.size()) - 2; i >= 0; --i)
            by_axis[i] = by_axis[i + 1] * t.dim(i + 1);
        std::vector<std::int64_t> by_label(loop_labels.size(), 0);
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const auto pos = std::find(loop_labels.begin(),
                                       loop_labels.end(), labels[i]) -
                             loop_labels.begin();
            by_label[pos] += by_axis[i];
        }
        return by_label;
    };
    const auto a_stride = strides_for(a_dims, a);
    const auto b_stride = strides_for(b_dims, b);
    const auto o_stride = strides_for(out_dims, out);

    std::vector<std::int64_t> extents(loop_labels.size(), 0);
    auto record = [&](const std::vector<int> &labels, const Tensor &t) {
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const auto pos = std::find(loop_labels.begin(),
                                       loop_labels.end(), labels[i]) -
                             loop_labels.begin();
            extents[pos] = t.dim(static_cast<int>(i));
        }
    };
    record(out_dims, out);
    record(b_dims, b);
    record(a_dims, a);

    const std::size_t n_loops = loop_labels.size();
    for (std::int64_t e : extents) {
        if (e == 0)
            return;
    }
    if (n_loops == 0) {
        out.data()[0] += a.data()[0] * b.data()[0];
        return;
    }

    const float *ap = a.data();
    const float *bp = b.data();
    float *op = out.data();
    std::vector<std::int64_t> idx(n_loops, 0);
    std::int64_t a_pos = 0, b_pos = 0, o_pos = 0;
    while (true) {
        op[o_pos] += ap[a_pos] * bp[b_pos];
        int d = static_cast<int>(n_loops) - 1;
        for (; d >= 0; --d) {
            ++idx[d];
            a_pos += a_stride[d];
            b_pos += b_stride[d];
            o_pos += o_stride[d];
            if (idx[d] < extents[d])
                break;
            a_pos -= extents[d] * a_stride[d];
            b_pos -= extents[d] * b_stride[d];
            o_pos -= extents[d] * o_stride[d];
            idx[d] = 0;
        }
        if (d < 0)
            break;
    }
}

namespace {

constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)

float
geluScalar(float x)
{
    const float inner = kGeluC * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.0f + std::tanh(inner));
}

float
geluGradScalar(float x)
{
    const float inner = kGeluC * (x + 0.044715f * x * x * x);
    const float t = std::tanh(inner);
    const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
}

} // namespace

Tensor
gelu(const Tensor &input)
{
    Tensor out(input.shape());
    const float *in = input.data();
    float *o = out.data();
    for (std::int64_t i = 0; i < input.numel(); ++i)
        o[i] = geluScalar(in[i]);
    return out;
}

Tensor
geluBackward(const Tensor &input, const Tensor &d_output)
{
    Tensor out(input.shape());
    const float *in = input.data();
    const float *gy = d_output.data();
    float *o = out.data();
    for (std::int64_t i = 0; i < input.numel(); ++i)
        o[i] = gy[i] * geluGradScalar(in[i]);
    return out;
}

} // namespace naive

} // namespace primepar
