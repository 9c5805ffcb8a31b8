#include "fault.hh"

#include <cstring>
#include <sstream>

#include "errors.hh"
#include "support/logging.hh"

namespace primepar {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::None:
        return "none";
    case FaultKind::Drop:
        return "drop";
    case FaultKind::Corrupt:
        return "corrupt";
    case FaultKind::Delay:
        return "delay";
    case FaultKind::DeviceFail:
        return "fail";
    case FaultKind::NetDrop:
        return "netdrop";
    case FaultKind::NetDelay:
        return "netdelay";
    case FaultKind::NetTruncate:
        return "nettrunc";
    case FaultKind::WorkerKill:
        return "kill";
    }
    return "?";
}

bool
FaultSpec::enabled() const
{
    return dropProb > 0.0 || corruptProb > 0.0 || delayProb > 0.0 ||
           netDropProb > 0.0 || netDelayProb > 0.0 ||
           netTruncateProb > 0.0 || !schedule.empty();
}

namespace {

FaultKind
faultKindByName(const std::string &name)
{
    if (name == "drop")
        return FaultKind::Drop;
    if (name == "corrupt")
        return FaultKind::Corrupt;
    if (name == "delay")
        return FaultKind::Delay;
    if (name == "fail")
        return FaultKind::DeviceFail;
    if (name == "netdrop")
        return FaultKind::NetDrop;
    if (name == "netdelay")
        return FaultKind::NetDelay;
    if (name == "nettrunc")
        return FaultKind::NetTruncate;
    if (name == "kill")
        return FaultKind::WorkerKill;
    throw InputError(
        "fault-spec: unknown fault kind '" + name +
        "' (expected drop|corrupt|delay|fail|netdrop|netdelay|"
        "nettrunc|kill)");
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream is(text);
    while (std::getline(is, cur, sep)) {
        if (!cur.empty())
            out.push_back(cur);
    }
    return out;
}

double
parseProb(const std::string &token, const std::string &value)
{
    char *end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0)
        throw InputError("fault-spec: '" + token +
                         "' needs a probability in [0, 1]");
    return p;
}

std::int64_t
parseInt(const std::string &token, const std::string &value)
{
    char *end = nullptr;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        throw InputError("fault-spec: '" + token +
                         "' needs an integer value");
    return v;
}

/** splitmix64 finalizer — the injector's hash mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    for (const std::string &token : splitOn(text, ',')) {
        const std::size_t at = token.find('@');
        if (at != std::string::npos) {
            // Scheduled fault: kind@key=value:key=value...
            ScheduledFault sf;
            sf.kind = faultKindByName(token.substr(0, at));
            for (const std::string &kv :
                 splitOn(token.substr(at + 1), ':')) {
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    throw InputError("fault-spec: malformed '" +
                                     token + "' (expected key=value)");
                const std::string key = kv.substr(0, eq);
                const std::string value = kv.substr(eq + 1);
                if (key == "step") {
                    sf.step = parseInt(token, value);
                } else if (key == "dev") {
                    sf.device = parseInt(token, value);
                } else if (key == "fires") {
                    sf.fires = static_cast<int>(parseInt(token, value));
                } else {
                    throw InputError("fault-spec: unknown key '" +
                                     key + "' in '" + token + "'");
                }
            }
            spec.schedule.push_back(sf);
            continue;
        }
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            throw InputError("fault-spec: malformed token '" + token +
                             "'");
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "drop") {
            spec.dropProb = parseProb(token, value);
        } else if (key == "corrupt") {
            spec.corruptProb = parseProb(token, value);
        } else if (key == "delay") {
            spec.delayProb = parseProb(token, value);
        } else if (key == "netdrop") {
            spec.netDropProb = parseProb(token, value);
        } else if (key == "netdelay") {
            spec.netDelayProb = parseProb(token, value);
        } else if (key == "nettrunc") {
            spec.netTruncateProb = parseProb(token, value);
        } else if (key == "seed") {
            spec.seed = static_cast<std::uint64_t>(
                parseInt(token, value));
        } else {
            throw InputError("fault-spec: unknown key '" + key + "'");
        }
    }
    return spec;
}

std::string
FaultSpec::toString() const
{
    std::ostringstream os;
    os << "drop=" << dropProb << ",corrupt=" << corruptProb
       << ",delay=" << delayProb;
    if (netDropProb > 0.0)
        os << ",netdrop=" << netDropProb;
    if (netDelayProb > 0.0)
        os << ",netdelay=" << netDelayProb;
    if (netTruncateProb > 0.0)
        os << ",nettrunc=" << netTruncateProb;
    os << ",seed=" << seed;
    for (const ScheduledFault &sf : schedule) {
        os << "," << faultKindName(sf.kind) << "@step=" << sf.step
           << ":dev=" << sf.device << ":fires=" << sf.fires;
    }
    return os.str();
}

namespace {

bool
isNetKind(FaultKind kind)
{
    return kind == FaultKind::NetDrop || kind == FaultKind::NetDelay ||
           kind == FaultKind::NetTruncate;
}

/** Deterministic uniform in [0, 1) from the transfer identity. */
double
transferUniform(const FaultSpec &spec, const TransferTag &tag,
                int attempt, std::uint64_t salt)
{
    std::uint64_t h = spec.seed ^ salt;
    h = mix64(h ^ static_cast<std::uint64_t>(tag.trainStep));
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<int>(tag.phase) * 131 +
                      tag.temporalStep));
    h = mix64(h ^ (static_cast<std::uint64_t>(tag.sender) << 32 |
                   static_cast<std::uint64_t>(tag.receiver)));
    h = mix64(h ^ checksumBytes(tag.tensor.data(), tag.tensor.size()));
    h = mix64(h ^ checksumBytes(tag.channel, std::strlen(tag.channel)));
    h = mix64(h ^ static_cast<std::uint64_t>(attempt));
    return static_cast<double>(h >> 11) / 9007199254740992.0;
}

} // namespace

FaultKind
FaultInjector::decide(const TransferTag &tag, int attempt)
{
    // Scheduled faults first: they model targeted incidents and
    // consume their budget in deterministic transfer order. Net-level
    // kinds and worker kills live on other paths (decideNet /
    // consumeWorkerKill) so their budgets are consumed exactly once,
    // by the one process that enacts them.
    for (ScheduledFault &sf : spec_.schedule) {
        if (sf.fires <= 0 || isNetKind(sf.kind) ||
            sf.kind == FaultKind::WorkerKill)
            continue;
        if (sf.step >= 0 && sf.step != tag.trainStep)
            continue;
        if (sf.device >= 0 && sf.device != tag.sender &&
            sf.device != tag.receiver)
            continue;
        --sf.fires;
        return sf.kind;
    }

    const double total =
        spec_.dropProb + spec_.corruptProb + spec_.delayProb;
    if (total <= 0.0)
        return FaultKind::None;

    // Pure hash of the transfer identity: identical at any thread
    // count, and the `attempt` term lets retries succeed.
    const double u = transferUniform(spec_, tag, attempt, 0);
    if (u < spec_.dropProb)
        return FaultKind::Drop;
    if (u < spec_.dropProb + spec_.corruptProb)
        return FaultKind::Corrupt;
    if (u < total)
        return FaultKind::Delay;
    return FaultKind::None;
}

FaultKind
FaultInjector::decideNet(const TransferTag &tag, int attempt)
{
    for (ScheduledFault &sf : spec_.schedule) {
        if (sf.fires <= 0 || !isNetKind(sf.kind))
            continue;
        if (sf.step >= 0 && sf.step != tag.trainStep)
            continue;
        if (sf.device >= 0 && sf.device != tag.sender &&
            sf.device != tag.receiver)
            continue;
        --sf.fires;
        return sf.kind;
    }

    const double total = spec_.netDropProb + spec_.netDelayProb +
                         spec_.netTruncateProb;
    if (total <= 0.0)
        return FaultKind::None;

    // Different salt than decide(): a transfer can independently draw
    // an in-process fault and a socket fault.
    const double u =
        transferUniform(spec_, tag, attempt, 0x6e657466ull);
    if (u < spec_.netDropProb)
        return FaultKind::NetDrop;
    if (u < spec_.netDropProb + spec_.netDelayProb)
        return FaultKind::NetDelay;
    if (u < total)
        return FaultKind::NetTruncate;
    return FaultKind::None;
}

bool
FaultInjector::consumeWorkerKill(std::int64_t step, std::int64_t worker)
{
    for (ScheduledFault &sf : spec_.schedule) {
        if (sf.fires <= 0 || sf.kind != FaultKind::WorkerKill)
            continue;
        if (sf.step >= 0 && sf.step != step)
            continue;
        if (sf.device >= 0 && sf.device != worker)
            continue;
        --sf.fires;
        return true;
    }
    return false;
}

namespace {

inline std::uint64_t
rotl64(std::uint64_t v, int s)
{
    return (v << s) | (v >> (64 - s));
}

/**
 * Eight independent 64-bit additive lanes, mixed through an FNV chain
 * and avalanche at the end.
 *
 * Additive lanes are deliberate: they keep the hot loop at one add per
 * word, which the compiler turns into near-memcpy-throughput vector
 * code, whereas a single FNV chain is latency-bound on its dependent
 * multiply (~5 cycles per 8 bytes) and would make checksumming — not
 * copying — the dominant cost of the fault-free transport path. Like
 * the TCP checksum this is order-insensitive within a lane; transfer
 * *ordering* is protected separately by the message header's seq /
 * step / phase tags. A corrupted word always changes its lane sum by a
 * non-zero amount, and the final per-lane mix is bijective, so any
 * single-word corruption is detected deterministically.
 *
 * When @p Copy is set the pass also stores every word to @p dst, so
 * the transport's send path reads the payload from memory only once.
 */
template <bool Copy>
std::uint64_t
checksumPass(void *dst, const void *src, std::size_t bytes)
{
    constexpr std::uint64_t prime = 1099511628211ull; // FNV-64 prime
    const unsigned char *p = static_cast<const unsigned char *>(src);
    unsigned char *q = static_cast<unsigned char *>(dst);
    std::uint64_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;
    std::uint64_t h4 = 0, h5 = 0, h6 = 0, h7 = 0;
    while (bytes >= 64) {
        std::uint64_t w0, w1, w2, w3, w4, w5, w6, w7;
        std::memcpy(&w0, p, 8);
        std::memcpy(&w1, p + 8, 8);
        std::memcpy(&w2, p + 16, 8);
        std::memcpy(&w3, p + 24, 8);
        std::memcpy(&w4, p + 32, 8);
        std::memcpy(&w5, p + 40, 8);
        std::memcpy(&w6, p + 48, 8);
        std::memcpy(&w7, p + 56, 8);
        if (Copy) {
            std::memcpy(q, &w0, 8);
            std::memcpy(q + 8, &w1, 8);
            std::memcpy(q + 16, &w2, 8);
            std::memcpy(q + 24, &w3, 8);
            std::memcpy(q + 32, &w4, 8);
            std::memcpy(q + 40, &w5, 8);
            std::memcpy(q + 48, &w6, 8);
            std::memcpy(q + 56, &w7, 8);
            q += 64;
        }
        h0 += w0;
        h1 += w1;
        h2 += w2;
        h3 += w3;
        h4 += w4;
        h5 += w5;
        h6 += w6;
        h7 += w7;
        p += 64;
        bytes -= 64;
    }
    while (bytes >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        if (Copy) {
            std::memcpy(q, &w, 8);
            q += 8;
        }
        h0 = rotl64(h0, 9) + w;
        p += 8;
        bytes -= 8;
    }
    if (bytes > 0) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, p, bytes);
        if (Copy)
            std::memcpy(q, p, bytes);
        h0 = rotl64(h0, 9) + tail;
    }
    // Mix the lanes (bijective in each h_i, so a changed lane always
    // changes the result) and avalanche so single-bit payload
    // differences flip high and low result bits alike.
    std::uint64_t h = 0x243f6a8885a308d3ull;
    h = (h ^ h0) * prime;
    h = (h ^ rotl64(h1, 7)) * prime;
    h = (h ^ rotl64(h2, 14)) * prime;
    h = (h ^ rotl64(h3, 21)) * prime;
    h = (h ^ rotl64(h4, 28)) * prime;
    h = (h ^ rotl64(h5, 35)) * prime;
    h = (h ^ rotl64(h6, 42)) * prime;
    h = (h ^ rotl64(h7, 49)) * prime;
    h ^= h >> 29;
    h *= prime;
    h ^= h >> 32;
    return h;
}

} // namespace

std::uint64_t
checksumBytes(const void *data, std::size_t bytes)
{
    return checksumPass<false>(nullptr, data, bytes);
}

std::uint64_t
checksumCopyBytes(void *dst, const void *src, std::size_t bytes)
{
    return checksumPass<true>(dst, src, bytes);
}

} // namespace primepar
