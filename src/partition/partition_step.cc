#include "partition_step.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "support/bits.hh"
#include "support/logging.hh"

namespace primepar {

int
PartitionSeq::numBits() const
{
    int n = 0;
    for (const auto &s : stepsVec)
        n += s.bits();
    return n;
}

int
PartitionSeq::temporalSteps() const
{
    for (const auto &s : stepsVec) {
        if (s.kind == PartitionStep::Kind::PSquare)
            return 1 << s.k;
    }
    return 1;
}

bool
PartitionSeq::hasPSquare() const
{
    return pSquareIndex() >= 0;
}

int
PartitionSeq::pSquareIndex() const
{
    for (std::size_t i = 0; i < stepsVec.size(); ++i) {
        if (stepsVec[i].kind == PartitionStep::Kind::PSquare)
            return static_cast<int>(i);
    }
    return -1;
}

std::vector<std::int64_t>
PartitionSeq::sliceCounts(const OpSpec &op) const
{
    std::vector<std::int64_t> slices(op.dims.size());
    sliceCounts(op, slices.data());
    return slices;
}

void
PartitionSeq::sliceCounts(const OpSpec &op, std::int64_t *slices) const
{
    std::fill(slices, slices + op.dims.size(), 1);
    for (const auto &s : stepsVec) {
        if (s.kind == PartitionStep::Kind::ByDim) {
            slices[s.dim] *= 2;
        } else {
            PRIMEPAR_ASSERT(op.psquare.has_value(),
                            "PSquare on incompatible operator ", op.name);
            const std::int64_t f = std::int64_t{1} << s.k;
            slices[op.psquare->m] *= f;
            slices[op.psquare->n] *= f;
            slices[op.psquare->k] *= f;
        }
    }
}

std::string
PartitionSeq::validate(const OpSpec &op) const
{
    int psquares = 0;
    for (const auto &s : stepsVec) {
        if (s.kind == PartitionStep::Kind::ByDim) {
            if (s.dim < 0 || s.dim >= static_cast<int>(op.dims.size()))
                return "dimension index out of range";
            if (!op.dims[s.dim].partitionable)
                return "dimension " + op.dims[s.dim].name +
                       " is not partitionable";
        } else {
            if (!op.psquare.has_value())
                return "operator " + op.name +
                       " does not support the PSquare primitive";
            if (s.k < 1)
                return "PSquare requires k >= 1";
            ++psquares;
        }
    }
    if (psquares > 1)
        return "at most one PSquare primitive per sequence";

    const auto slices = sliceCounts(op);
    for (std::size_t d = 0; d < slices.size(); ++d) {
        if (op.dims[d].size % slices[d] != 0)
            return "dimension " + op.dims[d].name + " (" +
                   std::to_string(op.dims[d].size) +
                   ") not divisible into " + std::to_string(slices[d]) +
                   " slices";
    }
    return "";
}

PartitionSeq
parseSequence(const OpSpec &op, const std::string &text)
{
    PartitionSeq seq;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty()) {
            if (pos > text.size())
                break;
            PRIMEPAR_FATAL("empty token in sequence \"", text, "\"");
        }

        if (token.size() >= 4 && token[0] == 'P' &&
            token.find('x') != std::string::npos) {
            const std::size_t x = token.find('x');
            const std::string side_str = token.substr(1, x - 1);
            const std::int64_t side = std::atoll(side_str.c_str());
            if (!isPowerOfTwo(side) || side < 2 ||
                token.substr(x + 1) != side_str) {
                PRIMEPAR_FATAL("bad PSquare token \"", token,
                               "\" (expected e.g. P2x2, P4x4)");
            }
            int k = 0;
            for (std::int64_t s = side; s > 1; s /= 2)
                ++k;
            seq.push(PartitionStep::pSquare(k));
            continue;
        }

        int dim = -1;
        for (std::size_t d = 0; d < op.dims.size(); ++d) {
            if (op.dims[d].name == token)
                dim = static_cast<int>(d);
        }
        if (dim < 0) {
            PRIMEPAR_FATAL("operator ", op.name, " has no dimension \"",
                           token, "\"");
        }
        seq.push(PartitionStep::byDim(dim));
        if (comma == text.size())
            break;
    }

    const std::string err = seq.validate(op);
    if (!err.empty())
        PRIMEPAR_FATAL("invalid sequence \"", text, "\": ", err);
    return seq;
}

std::string
PartitionSeq::toString(const OpSpec &op) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < stepsVec.size(); ++i) {
        if (i)
            os << ',';
        const auto &s = stepsVec[i];
        if (s.kind == PartitionStep::Kind::ByDim) {
            os << op.dims[s.dim].name;
        } else {
            os << 'P' << (1 << s.k) << 'x' << (1 << s.k);
        }
    }
    return os.str();
}

} // namespace primepar
