#include "tensor.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "elementwise.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

std::int64_t
shapeCount(const Shape &shape)
{
    std::int64_t n = 1;
    for (std::int64_t e : shape) {
        PRIMEPAR_ASSERT(e >= 0, "negative tensor extent");
        n *= e;
    }
    return n;
}

std::vector<std::int64_t>
shapeStrides(const Shape &shape)
{
    std::vector<std::int64_t> strides(shape.size(), 1);
    for (int d = static_cast<int>(shape.size()) - 2; d >= 0; --d)
        strides[d] = strides[d + 1] * shape[d + 1];
    return strides;
}

/**
 * Longest contiguous run copyable in one memcpy from a slice: the
 * innermost extent times every trailing dimension the slice covers
 * completely. Returns the first dimension NOT folded into the run
 * (-1 when the whole tensor is one run).
 */
int
sliceRunDim(const Shape &shape, const std::vector<std::int64_t> &starts,
            const std::vector<std::int64_t> &extents)
{
    int d = static_cast<int>(shape.size()) - 1;
    while (d >= 0 && starts[d] == 0 && extents[d] == shape[d])
        --d;
    return d;
}

} // namespace

Tensor::Tensor(Shape shape)
    : shapeVec(std::move(shape)), strides(shapeStrides(shapeVec)),
      count(shapeCount(shapeVec)), storage(count, /*zeroed=*/true)
{}

Tensor::Tensor(Shape shape, Uninit)
    : shapeVec(std::move(shape)), strides(shapeStrides(shapeVec)),
      count(shapeCount(shapeVec)), storage(count, /*zeroed=*/false)
{}

Tensor
Tensor::uninitialized(Shape shape)
{
    return Tensor(std::move(shape), Uninit{});
}

Tensor
Tensor::full(Shape shape, float value)
{
    Tensor t = uninitialized(std::move(shape));
    std::fill(t.storage.data(), t.storage.data() + t.count, value);
    return t;
}

Tensor
Tensor::random(Shape shape, Rng &rng)
{
    Tensor t = uninitialized(std::move(shape));
    float *p = t.storage.data();
    for (std::int64_t i = 0; i < t.count; ++i)
        p[i] = rng.uniform();
    return t;
}

std::int64_t
Tensor::dim(int d) const
{
    PRIMEPAR_ASSERT(d >= 0 && d < rank(), "dim index ", d, " out of range");
    return shapeVec[d];
}

std::int64_t
Tensor::flatIndex(const std::vector<std::int64_t> &index) const
{
    PRIMEPAR_ASSERT(index.size() == shapeVec.size(),
                    "index rank mismatch");
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < index.size(); ++d) {
        PRIMEPAR_ASSERT(index[d] >= 0 && index[d] < shapeVec[d],
                        "index out of range in dim ", d);
        flat += index[d] * strides[d];
    }
    return flat;
}

float &
Tensor::at(const std::vector<std::int64_t> &index)
{
    return storage.data()[flatIndex(index)];
}

float
Tensor::at(const std::vector<std::int64_t> &index) const
{
    return storage.data()[flatIndex(index)];
}

Tensor
Tensor::slice(const std::vector<std::int64_t> &starts,
              const std::vector<std::int64_t> &extents) const
{
    PRIMEPAR_ASSERT(starts.size() == shapeVec.size() &&
                        extents.size() == shapeVec.size(),
                    "slice rank mismatch");
    for (std::size_t d = 0; d < starts.size(); ++d) {
        PRIMEPAR_ASSERT(starts[d] >= 0 && extents[d] >= 0 &&
                            starts[d] + extents[d] <= shapeVec[d],
                        "slice out of range in dim ", d, ": start ",
                        starts[d], " extent ", extents[d], " of ",
                        shapeVec[d]);
    }

    Tensor out = uninitialized(Shape(extents.begin(), extents.end()));
    if (out.count == 0)
        return out;

    // Copy the largest contiguous runs possible: every trailing
    // dimension the slice covers completely folds into one memcpy.
    const int r = rank();
    const int run_dim = sliceRunDim(shapeVec, starts, extents);
    if (run_dim < 0) {
        std::memcpy(out.storage.data(), storage.data(),
                    static_cast<std::size_t>(count) * sizeof(float));
        return out;
    }
    const std::int64_t run =
        extents[run_dim] * (run_dim + 1 < r ? strides[run_dim] : 1);

    std::vector<std::int64_t> idx(run_dim, 0);
    std::int64_t base = starts[run_dim] * strides[run_dim];
    for (int d = 0; d < run_dim; ++d)
        base += starts[d] * strides[d];
    std::int64_t src = base;
    std::int64_t out_pos = 0;
    while (true) {
        std::memcpy(out.storage.data() + out_pos, storage.data() + src,
                    static_cast<std::size_t>(run) * sizeof(float));
        out_pos += run;

        int d = run_dim - 1;
        for (; d >= 0; --d) {
            ++idx[d];
            src += strides[d];
            if (idx[d] < extents[d])
                break;
            src -= extents[d] * strides[d];
            idx[d] = 0;
        }
        if (d < 0)
            break;
    }
    return out;
}

Tensor
Tensor::narrow(int d, std::int64_t start, std::int64_t extent) const
{
    std::vector<std::int64_t> starts(rank(), 0);
    std::vector<std::int64_t> extents(shapeVec.begin(), shapeVec.end());
    starts[d] = start;
    extents[d] = extent;
    return slice(starts, extents);
}

void
Tensor::assignSlice(const std::vector<std::int64_t> &starts,
                    const Tensor &src)
{
    PRIMEPAR_ASSERT(starts.size() == shapeVec.size() &&
                        src.rank() == rank(),
                    "assignSlice rank mismatch");
    if (src.count == 0)
        return;
    const int r = rank();
    for (int d = 0; d < r; ++d) {
        PRIMEPAR_ASSERT(starts[d] >= 0 &&
                            starts[d] + src.shapeVec[d] <= shapeVec[d],
                        "assignSlice out of range in dim ", d);
    }

    const std::vector<std::int64_t> extents(src.shapeVec.begin(),
                                            src.shapeVec.end());
    const int run_dim = sliceRunDim(shapeVec, starts, extents);
    if (run_dim < 0) {
        std::memcpy(storage.data(), src.storage.data(),
                    static_cast<std::size_t>(count) * sizeof(float));
        return;
    }
    const std::int64_t run =
        extents[run_dim] * (run_dim + 1 < r ? strides[run_dim] : 1);

    std::vector<std::int64_t> idx(run_dim, 0);
    std::int64_t dst = starts[run_dim] * strides[run_dim];
    for (int d = 0; d < run_dim; ++d)
        dst += starts[d] * strides[d];
    std::int64_t src_pos = 0;
    while (true) {
        std::memcpy(storage.data() + dst, src.storage.data() + src_pos,
                    static_cast<std::size_t>(run) * sizeof(float));
        src_pos += run;

        int d = run_dim - 1;
        for (; d >= 0; --d) {
            ++idx[d];
            dst += strides[d];
            if (idx[d] < extents[d])
                break;
            dst -= extents[d] * strides[d];
            idx[d] = 0;
        }
        if (d < 0)
            break;
    }
}

void
Tensor::accumulateSlice(const std::vector<std::int64_t> &starts,
                        const Tensor &src)
{
    PRIMEPAR_ASSERT(starts.size() == shapeVec.size() &&
                        src.rank() == rank(),
                    "accumulateSlice rank mismatch");
    if (src.count == 0)
        return;
    const int r = rank();
    const std::int64_t inner = src.shapeVec[r - 1];
    std::vector<std::int64_t> idx(r, 0);
    std::int64_t src_pos = 0;
    float *dst_base = storage.data();
    const float *src_base = src.storage.data();
    while (true) {
        std::int64_t dst = 0;
        for (int d = 0; d < r; ++d)
            dst += (starts[d] + idx[d]) * strides[d];
        for (std::int64_t i = 0; i < inner; ++i)
            dst_base[dst + i] += src_base[src_pos + i];
        src_pos += inner;

        int d = r - 2;
        for (; d >= 0; --d) {
            if (++idx[d] < src.shapeVec[d])
                break;
            idx[d] = 0;
        }
        if (d < 0)
            break;
    }
}

void
Tensor::add(const Tensor &other)
{
    PRIMEPAR_ASSERT(other.shapeVec == shapeVec,
                    "add shape mismatch: ", shapeString(), " vs ",
                    other.shapeString());
    addKernel(storage.data(), other.storage.data(), count);
}

void
Tensor::scale(float s)
{
    float *p = storage.data();
    for (std::int64_t i = 0; i < count; ++i)
        p[i] *= s;
}

void
Tensor::zero()
{
    if (count > 0)
        std::memset(storage.data(), 0,
                    static_cast<std::size_t>(count) * sizeof(float));
}

Tensor
Tensor::reshape(Shape new_shape) const
{
    PRIMEPAR_ASSERT(shapeCount(new_shape) == count,
                    "reshape element count mismatch");
    Tensor out = uninitialized(std::move(new_shape));
    if (count > 0)
        std::memcpy(out.storage.data(), storage.data(),
                    static_cast<std::size_t>(count) * sizeof(float));
    return out;
}

Tensor
Tensor::permute(const std::vector<int> &axes) const
{
    PRIMEPAR_ASSERT(static_cast<int>(axes.size()) == rank(),
                    "permute arity mismatch");
    Shape new_shape(axes.size());
    for (std::size_t i = 0; i < axes.size(); ++i) {
        PRIMEPAR_ASSERT(axes[i] >= 0 && axes[i] < rank(),
                        "permute axis out of range");
        new_shape[i] = shapeVec[axes[i]];
    }
    Tensor out = uninitialized(new_shape);
    if (count == 0)
        return out;

    // Gather with the innermost output axis hoisted: when that axis
    // is also the innermost source axis the row copies contiguously.
    const int r = rank();
    const std::int64_t inner_n = new_shape[r - 1];
    const std::int64_t inner_s = strides[axes[r - 1]];
    const float *src = storage.data();
    float *dst = out.storage.data();

    std::vector<std::int64_t> idx(axes.size(), 0);
    std::int64_t out_pos = 0;
    while (true) {
        std::int64_t base = 0;
        for (int i = 0; i < r - 1; ++i)
            base += idx[i] * strides[axes[i]];
        if (inner_s == 1) {
            std::memcpy(dst + out_pos, src + base,
                        static_cast<std::size_t>(inner_n) *
                            sizeof(float));
        } else {
            for (std::int64_t t = 0; t < inner_n; ++t)
                dst[out_pos + t] = src[base + t * inner_s];
        }
        out_pos += inner_n;

        int d = r - 2;
        for (; d >= 0; --d) {
            if (++idx[d] < new_shape[d])
                break;
            idx[d] = 0;
        }
        if (d < 0)
            break;
    }
    return out;
}

float
Tensor::maxAbsDiff(const Tensor &other) const
{
    PRIMEPAR_ASSERT(other.shapeVec == shapeVec,
                    "maxAbsDiff shape mismatch");
    float m = 0.0f;
    const float *p = storage.data();
    const float *q = other.storage.data();
    for (std::int64_t i = 0; i < count; ++i)
        m = std::max(m, std::abs(p[i] - q[i]));
    return m;
}

bool
Tensor::allClose(const Tensor &other, float rtol, float atol) const
{
    if (other.shapeVec != shapeVec)
        return false;
    const float *p = storage.data();
    const float *q = other.storage.data();
    for (std::int64_t i = 0; i < count; ++i) {
        const float tol = atol + rtol * std::abs(q[i]);
        if (std::abs(p[i] - q[i]) > tol)
            return false;
    }
    return true;
}

std::string
Tensor::shapeString() const
{
    std::ostringstream os;
    os << '[';
    for (std::size_t d = 0; d < shapeVec.size(); ++d) {
        if (d)
            os << ", ";
        os << shapeVec[d];
    }
    os << ']';
    return os.str();
}

} // namespace primepar
