#include "graph.hh"

#include "support/logging.hh"

namespace primepar {

namespace {

/** Check one side of an index map against that side's dim sizes:
 *  every axis in exactly one group, every group inside its dim, and
 *  (@p exact) every group covering its whole dim. */
void
checkIndexSide(const EdgeIndexMap &map,
               const std::vector<EdgeIndexMap::Group> &groups,
               const std::vector<std::int64_t> &sizes, bool exact,
               const std::string &edge)
{
    PRIMEPAR_ASSERT(groups.size() == sizes.size(),
                    "edge index map arity mismatch for ", edge);
    std::vector<int> uses(map.axisSizes.size(), 0);
    for (std::size_t d = 0; d < groups.size(); ++d) {
        std::int64_t extent = 1;
        for (int a : groups[d].axes) {
            PRIMEPAR_ASSERT(a >= 0 && a < static_cast<int>(uses.size()),
                            "edge index map axis ", a, " out of range for ",
                            edge);
            ++uses[a];
            extent *= map.axisSizes[a];
        }
        PRIMEPAR_ASSERT(groups[d].offset >= 0 &&
                            groups[d].offset + extent <= sizes[d],
                        "edge index map group ", d,
                        " exceeds its dim for ", edge);
        PRIMEPAR_ASSERT(!exact || (groups[d].offset == 0 &&
                                   extent == sizes[d]),
                        "edge index map leaves part of consumer dim ", d,
                        " undefined for ", edge);
    }
    for (int u : uses)
        PRIMEPAR_ASSERT(u == 1, "edge index map axis not used exactly "
                                "once per side for ",
                        edge);
}

std::vector<std::int64_t>
tensorSizes(const OpSpec &op, int tensor)
{
    std::vector<std::int64_t> sizes;
    for (int d : op.tensors[tensor].dims)
        sizes.push_back(op.dims[d].size);
    return sizes;
}

} // namespace

int
CompGraph::addNode(OpSpec op)
{
    nodesVec.push_back(std::move(op));
    return static_cast<int>(nodesVec.size()) - 1;
}

void
CompGraph::addEdge(int src, int dst, int dst_tensor, EdgeDimMap dim_map,
                   EdgeIndexMap index_map)
{
    PRIMEPAR_ASSERT(src >= 0 && src < numNodes() && dst >= 0 &&
                        dst < numNodes() && src < dst,
                    "bad edge ", src, " -> ", dst);
    const OpSpec &consumer = nodesVec[dst];
    PRIMEPAR_ASSERT(dst_tensor >= 0 &&
                        dst_tensor <
                            static_cast<int>(consumer.tensors.size()),
                    "bad consumer tensor index");
    PRIMEPAR_ASSERT(dim_map.size() ==
                        consumer.tensors[dst_tensor].dims.size(),
                    "edge dim map arity mismatch for ",
                    nodesVec[src].name, " -> ", consumer.name);
    if (!index_map.identity()) {
        const OpSpec &producer = nodesVec[src];
        const std::string edge = producer.name + " -> " + consumer.name;
        checkIndexSide(index_map, index_map.producer,
                       tensorSizes(producer, producer.outputTensor), false,
                       edge);
        checkIndexSide(index_map, index_map.consumer,
                       tensorSizes(consumer, dst_tensor), true, edge);
    }
    edgesVec.push_back({src, dst, dst_tensor, std::move(dim_map),
                        std::move(index_map)});
}

std::vector<const GraphEdge *>
CompGraph::inEdges(int node) const
{
    std::vector<const GraphEdge *> result;
    for (const auto &e : edgesVec) {
        if (e.dst == node)
            result.push_back(&e);
    }
    return result;
}

std::vector<const GraphEdge *>
CompGraph::outEdges(int node) const
{
    std::vector<const GraphEdge *> result;
    for (const auto &e : edgesVec) {
        if (e.src == node)
            result.push_back(&e);
    }
    return result;
}

std::vector<std::int64_t>
CompGraph::transferSizes(const GraphEdge &e) const
{
    return tensorSizes(nodesVec[e.dst], e.dstTensor);
}

std::vector<std::int64_t>
CompGraph::outputSizes(const GraphEdge &e) const
{
    const OpSpec &producer = nodesVec[e.src];
    return tensorSizes(producer, producer.outputTensor);
}

double
CompGraph::transferBytes(const GraphEdge &e) const
{
    const OpSpec &consumer = nodesVec[e.dst];
    return consumer.tensorBytes(e.dstTensor);
}

} // namespace primepar
