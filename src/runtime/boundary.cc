#include "boundary.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace primepar {

namespace {

/** The identity over a tensor of dim sizes @p sizes, spelled out:
 *  axis i is dim i on both sides. */
EdgeIndexMap
identityOver(const std::vector<std::int64_t> &sizes)
{
    EdgeIndexMap map;
    map.axisSizes = sizes;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        map.producer.push_back({{static_cast<int>(i)}, 0});
        map.consumer.push_back({{static_cast<int>(i)}, 0});
    }
    return map;
}

/**
 * Split [lo, hi) of the mixed-radix value of axes[i..] (most
 * significant first) into boxes over those axes: a partial leading
 * row, whole rows, a partial trailing row. Each box is @p cur with
 * those axes set, appended to @p out.
 */
void
splitGroup(const std::vector<int> &axes, std::size_t i, std::int64_t lo,
           std::int64_t hi, const std::vector<std::int64_t> &sizes,
           std::vector<SliceRange> &cur,
           std::vector<std::vector<SliceRange>> &out)
{
    const int a = axes[i];
    if (i + 1 == axes.size()) {
        cur[a] = {lo, hi};
        out.push_back(cur);
        return;
    }
    std::int64_t w = 1;
    for (std::size_t j = i + 1; j < axes.size(); ++j)
        w *= sizes[axes[j]];
    std::int64_t q0 = lo / w;
    const std::int64_t r0 = lo % w;
    const std::int64_t q1 = hi / w;
    const std::int64_t r1 = hi % w;
    if (q0 == q1) {
        cur[a] = {q0, q0 + 1};
        splitGroup(axes, i + 1, r0, r1, sizes, cur, out);
        return;
    }
    if (r0 != 0) {
        cur[a] = {q0, q0 + 1};
        splitGroup(axes, i + 1, r0, w, sizes, cur, out);
        ++q0;
    }
    if (q0 < q1) {
        cur[a] = {q0, q1};
        for (std::size_t j = i + 1; j < axes.size(); ++j)
            cur[axes[j]] = {0, sizes[axes[j]]};
        out.push_back(cur);
    }
    if (r1 != 0) {
        cur[a] = {q1, q1 + 1};
        splitGroup(axes, i + 1, 0, r1, sizes, cur, out);
    }
}

/** One loop of a strided box move: extent and element strides. */
struct Loop
{
    std::int64_t extent;
    std::int64_t src;
    std::int64_t dst;
};

void
moveRun(const float *src, std::int64_t src_stride, float *dst,
        std::int64_t dst_stride, std::int64_t n, bool accumulate)
{
    if (src_stride == 1 && dst_stride == 1) {
        if (!accumulate) {
            std::memcpy(dst, src, static_cast<std::size_t>(n) *
                                      sizeof(float));
            return;
        }
        for (std::int64_t i = 0; i < n; ++i)
            dst[i] += src[i];
        return;
    }
    for (std::int64_t i = 0; i < n; ++i) {
        if (accumulate)
            dst[i * dst_stride] += src[i * src_stride];
        else
            dst[i * dst_stride] = src[i * src_stride];
    }
}

/** Move a box given its loops outermost first. Unit loops are
 *  dropped and loops contiguous on both sides fold into one, so a
 *  box of whole rows is one run. */
void
moveBox(const float *src, float *dst, const std::vector<Loop> &loops_in,
        bool accumulate)
{
    std::vector<Loop> loops;
    for (const Loop &l : loops_in) {
        if (l.extent == 1)
            continue;
        if (!loops.empty() && loops.back().src == l.extent * l.src &&
            loops.back().dst == l.extent * l.dst) {
            loops.back() = {loops.back().extent * l.extent, l.src, l.dst};
            continue;
        }
        loops.push_back(l);
    }
    if (loops.empty()) {
        moveRun(src, 1, dst, 1, 1, accumulate);
        return;
    }
    const Loop inner = loops.back();
    loops.pop_back();
    std::vector<std::int64_t> idx(loops.size(), 0);
    std::int64_t s = 0;
    std::int64_t d = 0;
    for (;;) {
        moveRun(src + s, inner.src, dst + d, inner.dst, inner.extent,
                accumulate);
        int k = static_cast<int>(loops.size()) - 1;
        for (; k >= 0; --k) {
            s += loops[k].src;
            d += loops[k].dst;
            if (++idx[k] < loops[k].extent)
                break;
            s -= loops[k].extent * loops[k].src;
            d -= loops[k].extent * loops[k].dst;
            idx[k] = 0;
        }
        if (k < 0)
            return;
    }
}

} // namespace

SliceSet
SliceSet::whole(const Tensor &full)
{
    SliceSet set;
    set.shape = full.shape();
    set.boxes.emplace_back();
    for (std::int64_t extent : set.shape)
        set.boxes[0].push_back({0, extent});
    set.held = {&full};
    set.received.resize(1);
    return set;
}

BoundaryCopy::BoundaryCopy(const EdgeIndexMap &map_in, bool forward,
                           const SliceSet &src_in)
    : map(map_in.identity() ? identityOver(src_in.shape)
                            : map_in),
      src(src_in)
{
    srcSide = makeSide(forward ? map.producer : map.consumer);
    dstSide = makeSide(forward ? map.consumer : map.producer);
    for (const EdgeIndexMap::Group &g : dstSide.groups)
        dstOrder.insert(dstOrder.end(), g.axes.begin(), g.axes.end());

    // Replicas share one source.
    for (ReplicaClass &rc : replicaClasses(src.boxes)) {
        Source s;
        s.pieces = pieces(srcSide, rc.box);
        s.base = strides(srcSide, rc.box, s.stride);
        s.replicas = std::move(rc);
        sources.push_back(std::move(s));
    }
}

BoundaryCopy::Side
BoundaryCopy::makeSide(const std::vector<EdgeIndexMap::Group> &groups) const
{
    Side side;
    side.groups = groups;
    side.dimOf.assign(map.axisSizes.size(), -1);
    side.weight.assign(map.axisSizes.size(), 1);
    for (std::size_t d = 0; d < groups.size(); ++d) {
        std::int64_t w = 1;
        for (auto a = groups[d].axes.rbegin(); a != groups[d].axes.rend();
             ++a) {
            side.dimOf[*a] = static_cast<int>(d);
            side.weight[*a] = w;
            w *= map.axisSizes[*a];
        }
    }
    return side;
}

std::vector<BoundaryCopy::AxisBox>
BoundaryCopy::pieces(const Side &side,
                     const std::vector<SliceRange> &box) const
{
    PRIMEPAR_ASSERT(box.size() == side.groups.size(),
                    "boundary box rank mismatch");
    std::vector<AxisBox> acc{AxisBox(map.axisSizes.size())};
    std::vector<AxisBox> next;
    for (std::size_t d = 0; d < box.size(); ++d) {
        const EdgeIndexMap::Group &g = side.groups[d];
        std::int64_t extent = 1;
        for (int a : g.axes)
            extent *= map.axisSizes[a];
        const std::int64_t lo = std::max<std::int64_t>(
            box[d].start - g.offset, 0);
        const std::int64_t hi =
            std::min(box[d].end - g.offset, extent);
        if (lo >= hi)
            return {};
        if (g.axes.empty())
            continue;
        next.clear();
        for (AxisBox &cur : acc)
            splitGroup(g.axes, 0, lo, hi, map.axisSizes, cur, next);
        acc.swap(next);
    }
    return acc;
}

std::int64_t
BoundaryCopy::strides(const Side &side,
                      const std::vector<SliceRange> &box,
                      std::vector<std::int64_t> &stride) const
{
    std::vector<std::int64_t> dim_stride(box.size(), 1);
    for (std::size_t d = box.size(); d-- > 1;)
        dim_stride[d - 1] = dim_stride[d] * box[d].length();
    stride.assign(map.axisSizes.size(), 0);
    for (std::size_t a = 0; a < stride.size(); ++a)
        stride[a] = side.weight[a] * dim_stride[side.dimOf[a]];
    std::int64_t base = 0;
    for (std::size_t d = 0; d < box.size(); ++d)
        base += (side.groups[d].offset - box[d].start) * dim_stride[d];
    return base;
}

std::int64_t
BoundaryCopy::into(std::int64_t dev, const std::vector<SliceRange> &box,
                   Tensor &slot, bool accumulate) const
{
    const std::vector<AxisBox> dst_pieces = pieces(dstSide, box);
    std::vector<std::int64_t> dst_stride;
    const std::int64_t dst_base = strides(dstSide, box, dst_stride);
    std::vector<Loop> loops(dstOrder.size());
    std::int64_t covered = 0;
    std::int64_t moved = 0;
    for (const Source &s : sources) {
        const std::vector<std::int64_t> &holders = s.replicas.holders;
        const bool local = s.replicas.heldBy(dev);
        const Tensor *data = local ? src.data(dev) : nullptr;
        for (std::size_t h = 0; !data && h < holders.size(); ++h)
            data = src.data(holders[h]);
        for (const AxisBox &sp : s.pieces) {
            for (const AxisBox &dp : dst_pieces) {
                std::int64_t volume = 1;
                std::int64_t so = s.base;
                std::int64_t d_off = dst_base;
                for (std::size_t i = 0; i < dstOrder.size() && volume;
                     ++i) {
                    const int a = dstOrder[i];
                    const std::int64_t lo =
                        std::max(sp[a].start, dp[a].start);
                    const std::int64_t hi = std::min(sp[a].end, dp[a].end);
                    volume *= hi > lo ? hi - lo : 0;
                    so += lo * s.stride[a];
                    d_off += lo * dst_stride[a];
                    loops[i] = {hi - lo, s.stride[a], dst_stride[a]};
                }
                if (volume == 0)
                    continue;
                PRIMEPAR_ASSERT(data, "boundary source box held by no "
                                      "slice of this process");
                moveBox(data->data() + so, slot.data() + d_off, loops,
                        accumulate);
                covered += volume;
                if (!local)
                    moved += volume;
            }
        }
    }
    PRIMEPAR_ASSERT(accumulate || covered == slot.numel(),
                    "boundary copy covered ", covered, " of ",
                    slot.numel(), " elements of device ", dev,
                    "'s slot");
    return moved;
}

} // namespace primepar
