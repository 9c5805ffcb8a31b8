/**
 * @file
 * Wire-codec tests: the lossless Pack codec must round-trip every
 * bit pattern exactly (including NaN/Inf/-0) at any length, compress
 * bf16-rounded gradients below the bench budget, and stay near-free
 * on incompressible data; the lossy bf16/int8 codecs must respect
 * their stated tolerances; and a transport routed through a codec
 * must keep the full checksummed-delivery contract — corrupted
 * encoded streams are detected and retried, graph execution stays
 * bit-identical, and bytes-on-wire shrink.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "runtime/codec.hh"
#include "runtime/errors.hh"
#include "runtime/graph_executor.hh"
#include "runtime/trainer.hh"
#include "runtime/transformer_runtime.hh"
#include "runtime/transport.hh"
#include "support/rng.hh"

namespace primepar {
namespace {

/** Truncate @p t to bf16 precision in place (low 16 bits cleared) —
 *  the canonical "compressible gradient" payload. */
void
roundToBf16(Tensor &t)
{
    float *p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        std::uint32_t u;
        std::memcpy(&u, &p[i], 4);
        u &= 0xffff0000u;
        std::memcpy(&p[i], &u, 4);
    }
}

/** Encode + decode through @p kind; dst starts sentinel-filled, so a
 *  skipped element would survive as the sentinel. */
Tensor
roundTrip(CodecKind kind, const Tensor &src, std::size_t *bytes_out)
{
    const std::int64_t n = src.numel();
    std::vector<std::uint8_t> wire(codecBound(kind, n) + 1, 0xee);
    const std::size_t bytes = codecEncode(kind, src.data(), n,
                                          wire.data());
    EXPECT_LE(bytes, codecBound(kind, n));
    Tensor dst(src.shape());
    for (std::int64_t i = 0; i < n; ++i)
        dst.data()[i] = -777.0f; // sentinel: decode must overwrite
    codecDecode(kind, wire.data(), bytes, dst.data(), n);
    if (bytes_out)
        *bytes_out = bytes;
    return dst;
}

TEST(Codec, NamesRoundTripAndRejectUnknown)
{
    for (CodecKind k : {CodecKind::None, CodecKind::Pack,
                        CodecKind::Bf16, CodecKind::Int8})
        EXPECT_EQ(parseCodecKind(codecKindName(k)), k);
    EXPECT_THROW(parseCodecKind("gzip"), RuntimeError);
    EXPECT_THROW(parseCodecKind(""), RuntimeError);
    EXPECT_TRUE(codecLossless(CodecKind::None));
    EXPECT_TRUE(codecLossless(CodecKind::Pack));
    EXPECT_FALSE(codecLossless(CodecKind::Bf16));
    EXPECT_FALSE(codecLossless(CodecKind::Int8));
}

TEST(Codec, PackRoundTripsExactlyAtEverySize)
{
    Rng rng(101);
    // Straddles block boundaries (128 words) and the byte-aligned
    // fast-path widths.
    for (std::int64_t n : {1, 2, 31, 127, 128, 129, 255, 1000, 4096}) {
        const Tensor src = Tensor::random(Shape{n}, rng);
        std::size_t bytes = 0;
        const Tensor got = roundTrip(CodecKind::Pack, src, &bytes);
        EXPECT_EQ(std::memcmp(got.data(), src.data(),
                              static_cast<std::size_t>(n) * 4),
                  0)
            << "n=" << n;
    }
}

TEST(Codec, PackPreservesSpecialValuesBitForBit)
{
    Tensor src(Shape{130});
    float *p = src.data();
    p[0] = std::nanf("");
    p[1] = HUGE_VALF;  // +inf
    p[2] = -HUGE_VALF; // -inf
    p[3] = -0.0f;
    p[4] = 1e-44f; // subnormal
    p[129] = -1.5f;
    const Tensor got = roundTrip(CodecKind::Pack, src, nullptr);
    EXPECT_EQ(std::memcmp(got.data(), src.data(), 130 * 4), 0);
}

TEST(Codec, PackCompressionRatios)
{
    Rng rng(202);
    const std::int64_t n = 8192;

    // bf16-rounded gradients: low 16 bits are zero, so each block
    // packs to ~16-bit width. This is the bench_check budget.
    Tensor grads = Tensor::random(Shape{n}, rng);
    roundToBf16(grads);
    std::size_t bytes = 0;
    const Tensor got = roundTrip(CodecKind::Pack, grads, &bytes);
    EXPECT_EQ(std::memcmp(got.data(), grads.data(), n * 4), 0);
    const double ratio =
        static_cast<double>(bytes) / static_cast<double>(4 * n);
    EXPECT_LE(ratio, 0.7) << "bf16-rounded pack ratio " << ratio;

    // All zeros: 2 header bytes per 128-word block.
    const Tensor zeros(Shape{n});
    roundTrip(CodecKind::Pack, zeros, &bytes);
    EXPECT_EQ(bytes, static_cast<std::size_t>(2 * (n / 128)));

    // Incompressible random fp32: < 2% overhead.
    const Tensor noise = Tensor::random(Shape{n}, rng);
    roundTrip(CodecKind::Pack, noise, &bytes);
    EXPECT_LE(static_cast<double>(bytes),
              1.02 * static_cast<double>(4 * n));
}

TEST(Codec, Bf16HalvesBytesWithinTolerance)
{
    Rng rng(303);
    const std::int64_t n = 1000;
    const Tensor src = Tensor::random(Shape{n}, rng);
    std::size_t bytes = 0;
    const Tensor got = roundTrip(CodecKind::Bf16, src, &bytes);
    EXPECT_EQ(bytes, static_cast<std::size_t>(2 * n));
    for (std::int64_t i = 0; i < n; ++i) {
        // bf16 keeps 8 mantissa bits: relative error <= 2^-8.
        EXPECT_NEAR(got.data()[i], src.data()[i],
                    std::fabs(src.data()[i]) / 256.0f + 1e-30f)
            << "i=" << i;
    }
    // Already-bf16 data survives exactly (round-to-nearest-even of a
    // representable value is the identity).
    Tensor exact = Tensor::random(Shape{n}, rng);
    roundToBf16(exact);
    const Tensor again = roundTrip(CodecKind::Bf16, exact, &bytes);
    EXPECT_EQ(std::memcmp(again.data(), exact.data(), n * 4), 0);
}

TEST(Codec, Int8QuantizesPerBlockWithinScaleTolerance)
{
    Rng rng(404);
    const std::int64_t n = 640; // 5 blocks
    const Tensor src = Tensor::random(Shape{n}, rng);
    std::size_t bytes = 0;
    const Tensor got = roundTrip(CodecKind::Int8, src, &bytes);
    EXPECT_EQ(bytes, static_cast<std::size_t>(4 * (n / 128) + n));
    for (std::int64_t b = 0; b < n / 128; ++b) {
        float max_abs = 0.0f;
        for (std::int64_t i = b * 128; i < (b + 1) * 128; ++i)
            max_abs = std::max(max_abs, std::fabs(src.data()[i]));
        const float step = max_abs / 127.0f;
        for (std::int64_t i = b * 128; i < (b + 1) * 128; ++i) {
            EXPECT_NEAR(got.data()[i], src.data()[i],
                        0.5f * step + 1e-30f)
                << "i=" << i;
        }
    }
}

TEST(Codec, ConfigParsesWholeAndPerChannel)
{
    const CodecConfig all = CodecConfig::parse("pack");
    EXPECT_EQ(all.ring, CodecKind::Pack);
    EXPECT_EQ(all.acc, CodecKind::Pack);
    EXPECT_EQ(all.allreduce, CodecKind::Pack);
    EXPECT_TRUE(all.any());

    const CodecConfig mixed =
        CodecConfig::parse("ring=pack,allreduce=bf16");
    EXPECT_EQ(mixed.ring, CodecKind::Pack);
    EXPECT_EQ(mixed.acc, CodecKind::None);
    EXPECT_EQ(mixed.allreduce, CodecKind::Bf16);
    EXPECT_EQ(mixed.forChannel("ring"), CodecKind::Pack);
    EXPECT_EQ(mixed.forChannel("acc"), CodecKind::None);
    EXPECT_EQ(mixed.forChannel("allreduce"), CodecKind::Bf16);
    EXPECT_EQ(mixed.forChannel("unknown"), CodecKind::None);

    // toString() re-parses to the same selection.
    const CodecConfig reparsed = CodecConfig::parse(mixed.toString());
    EXPECT_EQ(reparsed.ring, mixed.ring);
    EXPECT_EQ(reparsed.acc, mixed.acc);
    EXPECT_EQ(reparsed.allreduce, mixed.allreduce);

    EXPECT_FALSE(CodecConfig{}.any());
    EXPECT_FALSE(CodecConfig::parse("none").any());
    EXPECT_THROW(CodecConfig::parse("gzip"), RuntimeError);
    EXPECT_THROW(CodecConfig::parse("ring="), RuntimeError);
    EXPECT_THROW(CodecConfig::parse("tube=pack"), RuntimeError);
}

TransferTag
ringTag()
{
    TransferTag tag;
    tag.tensor = "X";
    tag.channel = "ring";
    tag.sender = 0;
    tag.receiver = 1;
    return tag;
}

TEST(CodecTransport, PackedTransferIsBitIdenticalAndSmaller)
{
    TransportOptions topts;
    topts.codec = CodecConfig::parse("pack");
    RuntimeHealth health;
    InProcessTransport transport(topts, nullptr, &health);

    Rng rng(505);
    Tensor payload = Tensor::random(Shape{64, 64}, rng);
    roundToBf16(payload);
    Tensor dst;
    const TransferReceipt r =
        transport.transferInto(ringTag(), payload, dst);
    EXPECT_EQ(r.rawBytes, payload.numel() * 4);
    EXPECT_LT(r.wireBytes, r.rawBytes);
    EXPECT_EQ(std::memcmp(dst.data(), payload.data(),
                          static_cast<std::size_t>(r.rawBytes)),
              0);
    EXPECT_EQ(health.bytesMoved, r.rawBytes);
    EXPECT_EQ(health.bytesOnWire, r.wireBytes);
}

TEST(CodecTransport, DecodeFullyOverwritesRecycledDestination)
{
    TransportOptions topts;
    topts.codec = CodecConfig::parse("pack");
    InProcessTransport transport(topts, nullptr, nullptr);

    Rng rng(506);
    const Tensor payload = Tensor::random(Shape{256}, rng);
    // A reused destination arrives with stale contents; every element
    // must be overwritten by the decode.
    Tensor dst(Shape{256});
    for (std::int64_t i = 0; i < dst.numel(); ++i)
        dst.data()[i] = -31337.0f;
    transport.transferInto(ringTag(), payload, dst);
    EXPECT_EQ(dst.maxAbsDiff(payload), 0.0f);
}

TEST(CodecTransport, CorruptionOfEncodedStreamIsDetected)
{
    for (const char *codec : {"pack", "bf16", "int8"}) {
        TransportOptions topts;
        topts.codec = CodecConfig::parse(codec);
        FaultSpec spec;
        spec.corruptProb = 1.0;
        RuntimeHealth health;
        InProcessTransport transport(
            topts, std::make_shared<FaultInjector>(spec), &health);
        Rng rng(607);
        const Tensor payload = Tensor::random(Shape{100}, rng);
        EXPECT_THROW(transport.transfer(ringTag(), payload),
                     TransientFaultError)
            << codec;
        EXPECT_GT(health.corruptionsDetected + health.headerMismatches,
                  0)
            << codec;
    }
}

TEST(CodecTransport, TransientCorruptionRecoversExactPayload)
{
    TransportOptions topts;
    topts.codec = CodecConfig::parse("pack");
    FaultSpec spec;
    ScheduledFault fault;
    fault.kind = FaultKind::Corrupt;
    fault.fires = 1; // absorbed by one in-transport retry
    spec.schedule.push_back(fault);
    RuntimeHealth health;
    InProcessTransport transport(
        topts, std::make_shared<FaultInjector>(spec), &health);

    Rng rng(708);
    const Tensor payload = Tensor::random(Shape{300}, rng);
    const Tensor got = transport.transfer(ringTag(), payload);
    EXPECT_EQ(got.maxAbsDiff(payload), 0.0f);
    EXPECT_GT(health.corruptionsDetected + health.headerMismatches, 0);
    EXPECT_GT(health.retries, 0);
}

TEST(CodecTransport, GraphRunWithPackedChannelsIsBitIdentical)
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.hiddenSize = 8;
    cfg.numHeads = 2;
    cfg.ffnSize = 16;
    cfg.seqLength = 4;
    cfg.numLayers = 1;
    const CompGraph graph = buildTransformerBlock(cfg, 2);

    Rng rng(809);
    GraphIO io;
    io.input =
        Tensor::random(Shape{2, cfg.seqLength, cfg.hiddenSize}, rng);
    io.params = randomBlockParams(graph, rng);
    io.d_output =
        Tensor::random(Shape{2, cfg.seqLength, cfg.hiddenSize}, rng);

    const auto plan = defaultBlockPlan(graph, 2);
    auto runWith = [&](Transport *t) {
        SpmdGraphExecutor exec(graph, plan, 2, 1);
        installTransformerBlockTransforms(exec, cfg);
        if (t)
            exec.setTransport(t);
        exec.beginStep(0);
        GraphResult res = exec.run(io);
        return std::make_pair(std::move(res), exec.stats());
    };

    const auto [ref, ref_stats] = runWith(nullptr);

    TransportOptions topts;
    topts.codec = CodecConfig::parse("pack"); // lossless everywhere
    RuntimeHealth health;
    InProcessTransport transport(topts, nullptr, &health);
    const auto [got, stats] = runWith(&transport);

    EXPECT_EQ(got.output.maxAbsDiff(ref.output), 0.0f);
    EXPECT_EQ(got.d_input.maxAbsDiff(ref.d_input), 0.0f);
    for (const auto &[name, grad] : ref.d_params)
        EXPECT_EQ(got.d_params.at(name).maxAbsDiff(grad), 0.0f)
            << name;

    EXPECT_GT(stats.wireBytes, 0);
    EXPECT_EQ(health.bytesOnWire, stats.wireBytes);
    // Random fp32 barely packs, but the codec may never *grow* the
    // traffic beyond its documented < 2% framing overhead
    // (health.bytesMoved is the pre-codec byte total).
    EXPECT_LE(static_cast<double>(stats.wireBytes),
              1.02 * static_cast<double>(health.bytesMoved));
}

} // namespace
} // namespace primepar
