/**
 * @file
 * Plan-service request/response documents.
 *
 * A plan request names everything a deterministic planning run needs:
 * the model (by evaluation-model name), the cluster size, the batch,
 * and the planner knobs. Client and daemon exchange these as JSON
 * bodies inside the distributed runtime's PPF1 Ctrl / CtrlResp frames
 * (verb "plan"), so the serving plane reuses the existing framing,
 * checksumming, and deadline machinery instead of inventing a second
 * wire format.
 *
 * Responses carry the chosen partition sequences exactly (per-step
 * kind/dim/k, not rendered text), so a client can reconstruct the
 * PartitionSeq bit-identically to what the planner produced — the
 * property the store round-trip tests pin down.
 */

#ifndef PRIMEPAR_SERVE_SERVE_PROTOCOL_HH
#define PRIMEPAR_SERVE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "partition/partition_step.hh"
#include "support/json.hh"

namespace primepar {

/** One planning request (model spec + topology + planner knobs). */
struct PlanRequest
{
    /** Evaluation-model name (modelByName). */
    std::string model = "OPT 6.7B";
    /** Cluster size (positive power of two). */
    int devices = 8;
    /** Micro-batch size. */
    std::int64_t batch = 8;
    /** Stacked layers; 0 = the model's default depth. */
    int layers = 0;
    /** Cost-model alpha (us per MiB latency skew); 0 = default. */
    double alpha = 0.0;
    /** Include the spatial-temporal PSquare primitive. */
    bool psquare = true;
    /** Allow partitioning the batch dimension. */
    bool batchDim = true;
    /** 0 = exact; > 0 = certified-gap beam. */
    int beamWidth = 0;
    /** 0 = unbounded; else power-of-two temporal-step cap. */
    int maxTemporalSteps = 0;

    JsonValue toJson() const;
    /** Throws JsonError on malformed documents. */
    static PlanRequest fromJson(const JsonValue &doc);
    /** Throws InputError on out-of-range fields. */
    void validate() const;
    /** Short human-readable spec ("OPT 6.7B x32 b8 ..."). */
    std::string summary() const;
};

/** Answer to one plan request. */
struct PlanResponse
{
    bool ok = false;
    /** Diagnostic when !ok. */
    std::string error;
    /** Where the plan came from: "store" (persistent mmap'd store),
     *  "cache" (an earlier identical request's finished DP, kept in
     *  memory), "flight" (coalesced onto a concurrent identical
     *  request), or "dp" (fresh DP run). */
    std::string source;
    /** Chosen partition sequence per graph node. */
    std::vector<PartitionSeq> strategies;
    /** strategies rendered against the graph ("M,P2x2,N" form). */
    std::vector<std::string> strategyText;
    double layerCostUs = 0.0;
    double totalCostUs = 0.0;
    /** Certified suboptimality bound (0 = provably optimal). */
    double gapPct = 0.0;
    bool truncated = false;
    /** Server-side service time for this request, microseconds. */
    double serverUs = 0.0;

    JsonValue toJson() const;
    static PlanResponse fromJson(const JsonValue &doc);
};

/** Exact JSON form of one partition sequence: an array of step
 *  strings, "dN" for ByDim(N) and "pK" for PSquare(k=K). */
JsonValue partitionSeqToJson(const PartitionSeq &seq);
PartitionSeq partitionSeqFromJson(const JsonValue &doc);

/** Control-plane verbs the plan daemon understands. */
inline constexpr const char *kServeVerbPlan = "plan";
inline constexpr const char *kServeVerbStats = "stats";
inline constexpr const char *kServeVerbPing = "ping";
inline constexpr const char *kServeVerbShutdown = "shutdown";

} // namespace primepar

#endif // PRIMEPAR_SERVE_SERVE_PROTOCOL_HH
