/**
 * @file
 * Shared counting-sort CSR construction for the graph layer.
 *
 * Both graph granularities freeze a (u, v) edge list into the same
 * offsets-plus-adjacency layout; keeping the counting sort in one
 * place keeps their edge ordering (and hence the engine's FIFO
 * tie-breaking) identical by construction.
 */
#ifndef VTRAIN_GRAPH_CSR_H
#define VTRAIN_GRAPH_CSR_H

#include <cstdint>
#include <utility>
#include <vector>

namespace vtrain {

/**
 * Counting-sorts `edges` over `n` nodes into CSR form: `offsets`
 * (size n+1) and `list` (size edges.size()), preserving the edge
 * list's relative order within each source node.
 */
template <class Vec>
void
buildCsr(size_t n, const std::vector<std::pair<int32_t, int32_t>> &edges,
         Vec &offsets, Vec &list)
{
    std::vector<int32_t> out_degree(n, 0);
    for (const auto &[u, v] : edges)
        ++out_degree[u];
    offsets.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i)
        offsets[i + 1] = offsets[i] + out_degree[i];
    list.resize(edges.size());
    std::vector<int32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto &[u, v] : edges)
        list[cursor[u]++] = v;
}

} // namespace vtrain

#endif // VTRAIN_GRAPH_CSR_H
