/**
 * @file
 * `primepar_calibrate` — cost-model calibration against the real
 * SPMD runtime (paper Sec. 4.1 methodology, Table 1 patterns).
 *
 * The paper fits its linear latency models by profiling the target
 * system once per cluster. This tool is that profiling run for the
 * repo's real (emulated-device) runtime: it measures
 *
 *  - matmul-class kernels (GEMM wall time vs flops),
 *  - memory-bound kernels (elementwise activation vs bytes touched),
 *  - ring shift sets (one transfer per device through the framed
 *    InProcessTransport, vs bytes per transfer),
 *  - grouped all-reduces, one fit per communication group pattern
 *    (reduce-to-leader + broadcast over every group, vs payload
 *    bytes per device),
 *  - redistribution traffic (slice/assign copies vs bytes moved),
 *
 * fits a LinearModel per series (fitLinear), reports R^2, writes the
 * versioned `primepar-profiled-models-v1` JSON (cost/calibration.hh),
 * re-loads it to prove the round-trip is exact, and finishes with a
 * predicted-vs-measured report: CostModel::intraCost() on the fitted
 * models against wall-clock SpmdOpExecutor runs of the same plans.
 *
 * Usage:
 *   primepar_calibrate [--devices D] [--out FILE] [--quick]
 *                      [--min-r2 X]
 *
 * --min-r2 X exits non-zero when any fit's R^2 falls below X (the CI
 * smoke gate uses 0.9).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cost/calibration.hh"
#include "cost/cost_model.hh"
#include "runtime/observer.hh"
#include "runtime/spmd_executor.hh"
#include "runtime/transport.hh"
#include "support/bits.hh"
#include "support/rng.hh"
#include "tensor/ops.hh"

using namespace primepar;

namespace {

struct Options
{
    int devices = 4;
    std::string out = "calibration.json";
    bool quick = false;
    double minR2 = 0.0;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--devices") {
            opts.devices = std::atoi(next());
        } else if (arg == "--out") {
            opts.out = next();
        } else if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--min-r2") {
            opts.minR2 = std::atof(next());
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: primepar_calibrate [--devices D]"
                        " [--out FILE] [--quick] [--min-r2 X]\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument %s (try --help)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    if (!isPowerOfTwo(opts.devices) || opts.devices < 2) {
        std::fprintf(stderr,
                     "--devices must be a power of two (>= 2)\n");
        std::exit(2);
    }
    return opts;
}

int
log2i(int v)
{
    int bits = 0;
    while ((1 << bits) < v)
        ++bits;
    return bits;
}

/** Median wall time of @p reps timed runs of @p body (after one
 *  warm-up run), in microseconds. */
template <typename Fn>
double
timeUs(int reps, Fn &&body)
{
    body(); // warm-up: page in buffers, settle the allocator
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const double t0 = observerNowUs();
        body();
        samples.push_back(observerNowUs() - t0);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

struct FitSeries
{
    std::vector<double> xs;
    std::vector<double> ys;

    LinearModel
    fit(double *r2_out) const
    {
        const LinearModel m = fitLinear(xs, ys);
        if (r2_out)
            *r2_out = rSquared(m, xs, ys);
        return m;
    }
};

/** All grad-free tensors (plus "dO") an executor run() needs. */
std::map<std::string, Tensor>
makeInputs(const OpSpec &op, Rng &rng)
{
    std::map<std::string, Tensor> inputs;
    for (std::size_t t = 0; t < op.tensors.size(); ++t) {
        Shape shape;
        for (int d : op.tensors[t].dims)
            shape.push_back(op.dims[d].size);
        if (static_cast<int>(t) == op.outputTensor)
            inputs["d" + op.tensors[t].name] =
                Tensor::random(shape, rng);
        else
            inputs[op.tensors[t].name] = Tensor::random(shape, rng);
    }
    return inputs;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const int bits = log2i(opts.devices);
    const int reps = opts.quick ? 3 : 7;
    const auto topo = ClusterTopology::paperCluster(opts.devices);
    Rng rng(4242);

    std::printf("calibrating against the SPMD runtime: 2^%d devices,"
                " %d reps per sample%s\n\n",
                bits, reps, opts.quick ? " (quick)" : "");

    ProfiledModels models;
    CalibrationInfo info;
    info.source =
        "spmd-runtime/" + std::to_string(opts.devices) + "dev";
    bool r2_ok = true;

    auto report = [&](const std::string &name, const LinearModel &m,
                      double r2) {
        std::printf("  %-22s intercept %10.3f us  slope %.3e  "
                    "R^2 %.4f\n",
                    name.c_str(), m.intercept, m.slope, r2);
        info.r2[name] = r2;
        if (r2 < opts.minR2)
            r2_ok = false;
    };

    // ---- Matmul-class kernel: GEMM wall time vs flops. ----
    std::printf("[1/5] matmul kernel\n");
    {
        FitSeries series;
        const std::vector<std::int64_t> sizes =
            opts.quick ? std::vector<std::int64_t>{32, 48, 64, 96}
                       : std::vector<std::int64_t>{48, 64, 96, 128,
                                                   160, 192};
        for (const std::int64_t n : sizes) {
            const Tensor a = Tensor::random({n, n}, rng);
            const Tensor b = Tensor::random({n, n}, rng);
            const double us =
                timeUs(reps, [&] { (void)linearGradient(a, b); });
            series.xs.push_back(2.0 * static_cast<double>(n) *
                                static_cast<double>(n) *
                                static_cast<double>(n));
            series.ys.push_back(us);
        }
        double r2 = 0.0;
        models.matmulKernel = series.fit(&r2);
        report("matmul_kernel", models.matmulKernel, r2);
    }

    // ---- Memory-bound kernel: activation wall time vs bytes. ----
    std::printf("[2/5] memory kernel\n");
    {
        FitSeries series;
        const int lo = opts.quick ? 13 : 14;
        const int hi = opts.quick ? 17 : 19;
        for (int p = lo; p <= hi; ++p) {
            const std::int64_t numel = std::int64_t{1} << p;
            const Tensor x = Tensor::random({numel}, rng);
            const double us = timeUs(reps, [&] { (void)gelu(x); });
            // Feature: bytes touched (input read + output written),
            // matching CostModel's per-pass operand+output slice sum.
            series.xs.push_back(2.0 * static_cast<double>(numel) *
                                sizeof(float));
            series.ys.push_back(us);
        }
        double r2 = 0.0;
        models.memoryKernel = series.fit(&r2);
        report("memory_kernel", models.memoryKernel, r2);
    }

    // ---- Ring shift set: one framed transfer per device. ----
    // CostModel::intraCost charges one model evaluation per ring
    // shift, so the fit measures a whole set (numDevices transfers
    // through InProcessTransport) vs bytes per transfer.
    std::printf("[3/5] ring shift set (%d transfers/set)\n",
                opts.devices);
    {
        InProcessTransport transport;
        FitSeries series;
        const int lo = opts.quick ? 10 : 12;
        const int hi = opts.quick ? 14 : 17;
        for (int p = lo; p <= hi; ++p) {
            const std::int64_t numel = std::int64_t{1} << p;
            std::vector<Tensor> slots;
            for (int d = 0; d < opts.devices; ++d)
                slots.push_back(Tensor::random({numel}, rng));
            std::vector<Tensor> dst(slots);
            const double us = timeUs(reps, [&] {
                for (int d = 0; d < opts.devices; ++d) {
                    TransferTag tag;
                    tag.tensor = "ringcal";
                    tag.channel = "ring";
                    tag.sender = d;
                    tag.receiver = (d + 1) % opts.devices;
                    transport.transferInto(tag, slots[d],
                                           dst[tag.receiver]);
                }
            });
            series.xs.push_back(static_cast<double>(numel) *
                                sizeof(float));
            series.ys.push_back(us);
        }
        double r2 = 0.0;
        const LinearModel m = series.fit(&r2);
        // In-process there is no separate link class; both entries
        // get the measured fit so any topology classification works.
        models.ringHop[0] = m;
        models.ringHop[1] = m;
        report("ring_hop", m, r2);
    }

    // ---- Grouped all-reduce, one fit per group pattern key. ----
    // Mirrors the executor's collective: per group, reduce to the
    // leader then broadcast, every hop a framed transfer. Feature is
    // payload bytes per device (AllReduceSpec::elementsPerDevice).
    std::printf("[4/5] grouped all-reduce patterns\n");
    {
        // One representative indicator per distinct pattern key.
        std::map<GroupPatternKey, GroupIndicator> patterns;
        for (unsigned mask = 1; mask < (1u << bits); ++mask) {
            GroupIndicator ind;
            for (int b = 0; b < bits; ++b) {
                if (mask & (1u << b))
                    ind.push_back(b);
            }
            patterns.emplace(groupPatternKey(topo, ind), ind);
        }
        InProcessTransport transport;
        for (const auto &[key, indicator] : patterns) {
            const auto groups = enumerateGroups(bits, indicator);
            FitSeries series;
            const int lo = opts.quick ? 10 : 12;
            const int hi = opts.quick ? 14 : 16;
            for (int p = lo; p <= hi; ++p) {
                const std::int64_t numel = std::int64_t{1} << p;
                std::vector<Tensor> slots;
                for (int d = 0; d < opts.devices; ++d)
                    slots.push_back(Tensor::random({numel}, rng));
                const double us = timeUs(reps, [&] {
                    for (const DeviceGroup &group : groups) {
                        if (group.size() < 2)
                            continue;
                        Tensor sum = slots[group[0]];
                        TransferTag tag;
                        tag.tensor = "arcal";
                        tag.channel = "allreduce";
                        for (std::size_t i = 1; i < group.size();
                             ++i) {
                            tag.sender = group[i];
                            tag.receiver = group[0];
                            sum.add(transport.transfer(
                                tag, slots[group[i]]));
                        }
                        for (std::size_t i = 1; i < group.size();
                             ++i) {
                            tag.sender = group[0];
                            tag.receiver = group[i];
                            transport.transferInto(tag, sum,
                                                   slots[group[i]]);
                        }
                    }
                });
                series.xs.push_back(static_cast<double>(numel) *
                                    sizeof(float));
                series.ys.push_back(us);
            }
            double r2 = 0.0;
            models.allReduce[key] = series.fit(&r2);
            report("all_reduce.i" +
                       std::to_string(key.interNodeBits) + ".n" +
                       std::to_string(key.intraNodeBits),
                   models.allReduce[key], r2);
        }
    }

    // ---- Redistribution: slice + reassemble copies vs bytes. ----
    std::printf("[5/5] redistribution\n");
    {
        FitSeries series;
        const int lo = opts.quick ? 12 : 14;
        const int hi = opts.quick ? 16 : 18;
        for (int p = lo; p <= hi; ++p) {
            const std::int64_t rows = std::int64_t{1} << (p - 6);
            Tensor full = Tensor::random({rows, 64}, rng);
            Tensor target(full.shape());
            const std::int64_t half = rows / 2;
            const double us = timeUs(reps, [&] {
                // Move both halves through slice/assign — exactly
                // the executor's scatter/gather primitive.
                target.assignSlice({0, 0},
                                   full.slice({0, 0}, {half, 64}));
                target.assignSlice(
                    {half, 0}, full.slice({half, 0}, {half, 64}));
            });
            series.xs.push_back(static_cast<double>(rows) * 64 *
                                sizeof(float));
            series.ys.push_back(us);
        }
        double r2 = 0.0;
        const LinearModel m = series.fit(&r2);
        models.redistribution[0] = m;
        models.redistribution[1] = m;
        report("redistribution", m, r2);
    }

    // ---- Persist + exact round-trip. ----
    saveProfiledModels(opts.out, models, &info);
    CalibrationInfo reloaded_info;
    const ProfiledModels reloaded =
        loadProfiledModels(opts.out, &reloaded_info);
    auto same = [](const LinearModel &a, const LinearModel &b) {
        return a.intercept == b.intercept && a.slope == b.slope;
    };
    bool roundtrip = same(reloaded.matmulKernel, models.matmulKernel) &&
                     same(reloaded.memoryKernel, models.memoryKernel) &&
                     same(reloaded.ringHop[0], models.ringHop[0]) &&
                     same(reloaded.ringHop[1], models.ringHop[1]) &&
                     same(reloaded.redistribution[0],
                          models.redistribution[0]) &&
                     same(reloaded.redistribution[1],
                          models.redistribution[1]) &&
                     reloaded.allReduce.size() ==
                         models.allReduce.size() &&
                     reloaded_info.source == info.source;
    for (const auto &[key, model] : models.allReduce) {
        const auto it = reloaded.allReduce.find(key);
        roundtrip = roundtrip && it != reloaded.allReduce.end() &&
                    same(it->second, model);
    }
    std::printf("\nmodels written to %s (round-trip %s)\n",
                opts.out.c_str(), roundtrip ? "exact" : "MISMATCH");

    // ---- Predicted vs measured on real executor runs. ----
    std::printf("\npredicted vs measured (CostModel::intraCost vs"
                " SpmdOpExecutor wall time):\n");
    const CostModel cost(topo, models);
    ThreadPool pool(opts.devices);
    InProcessTransport transport;

    struct Case
    {
        const char *label;
        OpSpec op;
        PartitionSeq seq;
    };
    std::vector<Case> cases;
    {
        OpSpec fc = makeLinearOp("fc", 4, 128, 128, 128);
        fc.bytesPerElement = 4.0;
        if (bits >= 2)
            cases.push_back({"linear PSquare",
                             fc,
                             PartitionSeq({PartitionStep::pSquare(1)})});
        OpSpec col = makeLinearOp("fc_col", 4, 128, 128, 128);
        col.bytesPerElement = 4.0;
        PartitionSeq colseq;
        for (int b = 0; b < bits; ++b)
            colseq.push(PartitionStep::byDim(2)); // contracted dim
        cases.push_back({"linear contracted-split (all-reduce)",
                         col, colseq});
        OpSpec act =
            makeElementwiseOp("gelu_act", {"B", "M", "H"},
                              {4, 128, 256});
        act.bytesPerElement = 4.0;
        PartitionSeq actseq;
        for (int b = 0; b < bits; ++b)
            actseq.push(PartitionStep::byDim(1));
        cases.push_back({"elementwise gelu", act, actseq});
    }

    double worst_rel = 0.0;
    for (const Case &c : cases) {
        const double predicted = cost.intraCost(c.op, c.seq).latencyUs;
        SpmdOpExecutor exec(c.op, c.seq, bits);
        exec.setThreadPool(&pool);
        exec.setTransport(&transport);
        const auto inputs = makeInputs(c.op, rng);
        const double measured =
            timeUs(reps, [&] { (void)exec.run(inputs); });
        const double rel = measured > 0.0
                               ? (predicted - measured) / measured
                               : 0.0;
        worst_rel = std::max(worst_rel, std::abs(rel));
        std::printf("  %-36s predicted %9.1f us  measured %9.1f us"
                    "  rel err %+6.1f%%\n",
                    c.label, predicted, measured, rel * 100.0);
    }
    std::printf("  worst |relative error|: %.1f%% (measured includes"
                " scatter/gather, predictions do not)\n",
                worst_rel * 100.0);

    if (!roundtrip) {
        std::fprintf(stderr, "error: JSON round-trip mismatch\n");
        return 1;
    }
    if (!r2_ok) {
        std::fprintf(stderr,
                     "error: a fit fell below --min-r2 %.2f\n",
                     opts.minR2);
        return 1;
    }
    return 0;
}
