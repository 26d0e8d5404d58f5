/**
 * @file
 * The queue engine's pop order, restated independently of the library
 * for the engine and expansion tests: Algorithm 1's FIFO ready queue
 * seeded with the zero-in-degree tasks in id order, each pop queueing
 * the children (in CSR order) whose reference count reaches zero.
 * Durations never enter it.
 */
#ifndef VTRAIN_TESTS_QUEUE_ORDER_H
#define VTRAIN_TESTS_QUEUE_ORDER_H

#include <cstdint>
#include <vector>

#include "graph/task_graph.h"

namespace vtrain {
namespace queue_order {

/** @return each task's in-degree, counted off the child lists. */
inline std::vector<int32_t>
inDegrees(const TaskGraph &graph)
{
    std::vector<int32_t> degree(graph.numTasks(), 0);
    for (size_t u = 0; u < graph.numTasks(); ++u)
        for (const int32_t *c = graph.childBegin(static_cast<int32_t>(u));
             c != graph.childEnd(static_cast<int32_t>(u)); ++c)
            ++degree[*c];
    return degree;
}

/** @return the task ids of `graph` in the order the queue pops them
 *  (shorter than numTasks() when the graph has a cycle). */
inline std::vector<int32_t>
popOrder(const TaskGraph &graph)
{
    std::vector<int32_t> ref = inDegrees(graph);
    std::vector<int32_t> order;
    for (size_t i = 0; i < graph.numTasks(); ++i)
        if (ref[i] == 0)
            order.push_back(static_cast<int32_t>(i));
    for (size_t head = 0; head < order.size(); ++head)
        for (const int32_t *c = graph.childBegin(order[head]);
             c != graph.childEnd(order[head]); ++c)
            if (--ref[*c] == 0)
                order.push_back(*c);
    return order;
}

/**
 * @return `graph` renumbered into execution order: task i of the
 * result is task order[i] of `graph`, with children kept in CSR order
 * -- the layout TaskGraph::expand emits, so the replay engine runs it.
 */
inline TaskGraph
inExecutionOrder(const TaskGraph &graph, const std::vector<int32_t> &order)
{
    std::vector<int32_t> position(graph.numTasks());
    for (size_t i = 0; i < order.size(); ++i)
        position[order[i]] = static_cast<int32_t>(i);
    TaskGraph::Builder builder;
    for (const int32_t u : order) {
        const TaskGraph::TaskMeta &meta = graph.metas()[u];
        builder.addTask(graph.durations()[u], meta.device, meta.stream,
                        meta.tag);
    }
    for (size_t i = 0; i < order.size(); ++i)
        for (const int32_t *c = graph.childBegin(order[i]);
             c != graph.childEnd(order[i]); ++c)
            builder.addEdge(static_cast<int32_t>(i), position[*c]);
    return std::move(builder).build(graph.numDevices());
}

} // namespace queue_order
} // namespace vtrain

#endif // VTRAIN_TESTS_QUEUE_ORDER_H
