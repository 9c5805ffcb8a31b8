#include "serve_protocol.hh"

#include <cmath>

#include "graph/transformer.hh"
#include "optimizer/catalog.hh"
#include "runtime/errors.hh"

namespace primepar {

namespace {

bool
isPow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

int
intField(const JsonValue &doc, const char *key, int fallback)
{
    const JsonValue *v = doc.find(key);
    return v ? static_cast<int>(v->asNumber()) : fallback;
}

bool
boolField(const JsonValue &doc, const char *key, bool fallback)
{
    const JsonValue *v = doc.find(key);
    return v ? v->asBool() : fallback;
}

double
numField(const JsonValue &doc, const char *key, double fallback)
{
    const JsonValue *v = doc.find(key);
    return v ? v->asNumber() : fallback;
}

} // namespace

JsonValue
partitionSeqToJson(const PartitionSeq &seq)
{
    JsonValue arr = JsonValue::array();
    for (const PartitionStep &s : seq.steps()) {
        if (s.kind == PartitionStep::Kind::ByDim)
            arr.push("d" + std::to_string(s.dim));
        else
            arr.push("p" + std::to_string(s.k));
    }
    return arr;
}

PartitionSeq
partitionSeqFromJson(const JsonValue &doc)
{
    PartitionSeq seq;
    for (const JsonValue &item : doc.items()) {
        const std::string &tok = item.asString();
        if (tok.size() < 2 || (tok[0] != 'd' && tok[0] != 'p'))
            throw JsonError("bad partition step token '" + tok + "'");
        const int v = std::atoi(tok.c_str() + 1);
        if (tok[0] == 'd')
            seq.push(PartitionStep::byDim(v));
        else
            seq.push(PartitionStep::pSquare(v));
    }
    return seq;
}

JsonValue
PlanRequest::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("model", model);
    doc.set("devices", devices);
    doc.set("batch", static_cast<std::int64_t>(batch));
    doc.set("layers", layers);
    doc.set("alpha", alpha);
    doc.set("psquare", psquare);
    doc.set("batch_dim", batchDim);
    doc.set("beam_width", beamWidth);
    doc.set("max_temporal_steps", maxTemporalSteps);
    return doc;
}

PlanRequest
PlanRequest::fromJson(const JsonValue &doc)
{
    PlanRequest req;
    if (const JsonValue *m = doc.find("model"))
        req.model = m->asString();
    req.devices = intField(doc, "devices", req.devices);
    req.batch = static_cast<std::int64_t>(
        numField(doc, "batch", static_cast<double>(req.batch)));
    req.layers = intField(doc, "layers", req.layers);
    req.alpha = numField(doc, "alpha", req.alpha);
    req.psquare = boolField(doc, "psquare", req.psquare);
    req.batchDim = boolField(doc, "batch_dim", req.batchDim);
    req.beamWidth = intField(doc, "beam_width", req.beamWidth);
    req.maxTemporalSteps =
        intField(doc, "max_temporal_steps", req.maxTemporalSteps);
    return req;
}

void
PlanRequest::validate() const
{
    // modelByName treats an unknown name as a fatal internal error;
    // here it is caller input, so reject it with the known names.
    bool known = false;
    std::string names;
    for (const ModelConfig &m : evaluationModels()) {
        known = known || m.name == model;
        names += (names.empty() ? "" : ", ") + m.name;
    }
    if (!known) {
        throw InputError("unknown model '" + model + "' (known: " +
                         names + ")");
    }
    if (!isPow2(devices)) {
        throw InputError("devices must be a positive power of two "
                         "(got " +
                         std::to_string(devices) + ")");
    }
    if (batch < 1) {
        throw InputError("batch must be >= 1 (got " +
                         std::to_string(batch) + ")");
    }
    // The planner prices every edge tensor of the block on int32
    // lanes (CostModel::trafficSplit()); refuse a batch that makes one
    // too large to price exactly instead of planning into an assert.
    const std::string lanes = edgeLaneBoundsError(
        buildTransformerBlock(modelByName(model), batch), devices);
    if (!lanes.empty()) {
        throw InputError("batch " + std::to_string(batch) + " on " +
                         std::to_string(devices) + " devices: " + lanes);
    }
    if (layers < 0) {
        throw InputError("layers must be >= 0 (got " +
                         std::to_string(layers) + ")");
    }
    if (alpha < 0.0 || !std::isfinite(alpha))
        throw InputError("alpha must be finite and >= 0");
    if (beamWidth < 0) {
        throw InputError("beam_width must be >= 0 (got " +
                         std::to_string(beamWidth) + ")");
    }
    if (maxTemporalSteps < 0 ||
        (maxTemporalSteps != 0 && !isPow2(maxTemporalSteps))) {
        throw InputError("max_temporal_steps must be 0 or a power of "
                         "two (got " +
                         std::to_string(maxTemporalSteps) + ")");
    }
}

std::string
PlanRequest::summary() const
{
    std::string s = model + " x" + std::to_string(devices) + " b" +
                    std::to_string(batch);
    if (layers > 0)
        s += " L" + std::to_string(layers);
    if (beamWidth > 0)
        s += " beam" + std::to_string(beamWidth);
    if (!psquare)
        s += " no-psquare";
    return s;
}

JsonValue
PlanResponse::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("ok", ok);
    if (!ok) {
        doc.set("error", error);
        return doc;
    }
    doc.set("source", source);
    JsonValue strat = JsonValue::array();
    for (const PartitionSeq &seq : strategies)
        strat.push(partitionSeqToJson(seq));
    doc.set("strategies", std::move(strat));
    JsonValue text = JsonValue::array();
    for (const std::string &t : strategyText)
        text.push(t);
    doc.set("strategy_text", std::move(text));
    doc.set("layer_cost_us", layerCostUs);
    doc.set("total_cost_us", totalCostUs);
    doc.set("gap_pct", gapPct);
    doc.set("truncated", truncated);
    doc.set("server_us", serverUs);
    return doc;
}

PlanResponse
PlanResponse::fromJson(const JsonValue &doc)
{
    PlanResponse resp;
    resp.ok = doc.at("ok").asBool();
    if (!resp.ok) {
        if (const JsonValue *e = doc.find("error"))
            resp.error = e->asString();
        return resp;
    }
    resp.source = doc.at("source").asString();
    for (const JsonValue &seq : doc.at("strategies").items())
        resp.strategies.push_back(partitionSeqFromJson(seq));
    if (const JsonValue *text = doc.find("strategy_text"))
        for (const JsonValue &t : text->items())
            resp.strategyText.push_back(t.asString());
    resp.layerCostUs = numField(doc, "layer_cost_us", 0.0);
    resp.totalCostUs = numField(doc, "total_cost_us", 0.0);
    resp.gapPct = numField(doc, "gap_pct", 0.0);
    resp.truncated = boolField(doc, "truncated", false);
    resp.serverUs = numField(doc, "server_us", 0.0);
    return resp;
}

} // namespace primepar
