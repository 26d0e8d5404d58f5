/**
 * @file
 * Single-iteration training-time simulation (paper Algorithm 1).
 *
 * A per-device/per-stream timeline plus a FIFO ready queue replay the
 * task-granularity execution graph: each task starts when all its
 * parents have finished *and* its stream is free, mirroring lines
 * 9-20 of Algorithm 1 with the computation/communication-overlap
 * refinement the paper describes for gradient bucketing (Fig. 5).
 *
 * Two execution modes share that semantics:
 *
 *   - runSimulation(): the queue engine.  Works on any TaskGraph,
 *     detects cycles, times the template-less runs, and is the golden
 *     reference the replay modes are tested bit-identical against.
 *   - replaySimulation() / replayBatch(): schedule replay.  The FIFO
 *     pop order is a pure function of the topology (tasks enter the
 *     queue when their reference count hits zero and leave in
 *     insertion order — durations cannot reorder a FIFO), and
 *     TaskGraph::expand numbers tasks in exactly that order, so a run
 *     over an expanded topology is a single linear pass over tasks
 *     0..n-1: no queue, no reference counting, no per-task stream
 *     branch, and durations stream in task order.  replayBatch()
 *     simulates K duration vectors over one shared topology in a
 *     cache-friendly K-wide pass, the engine side of batched
 *     design-space sweeps; replaySimulation() is the same loop at
 *     K = 1, with optional tracing.
 *
 * Replays are bit-identical to the queue engine over the same
 * topology: the visit order is the queue's pop order, so every
 * floating-point accumulation (ready-time maxes, busy sums, tag sums)
 * happens in the same sequence on the same values.  They require a
 * topology in execution order (every expanded one is); a hand-built
 * TaskGraph::Builder graph generally is not, and runs on the queue
 * engine.
 */
#ifndef VTRAIN_SIM_ENGINE_H
#define VTRAIN_SIM_ENGINE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/task_graph.h"

namespace vtrain {

/** Raw outcome of one engine run. */
struct EngineResult {
    /** Predicted single-iteration time (max over device timelines). */
    double makespan = 0.0;

    /** Per-device busy time on the compute stream, seconds. */
    std::vector<double> busy_compute;

    /** Per-device busy time on the communication stream, seconds. */
    std::vector<double> busy_comm;

    /** Total scheduled duration by task tag, seconds (sum over all
     *  devices; includes overlapped time). */
    std::array<double, kNumTaskTags> time_by_tag{};

    /** Number of tasks executed (must equal the graph size). */
    size_t executed = 0;
};

/** Scheduled interval of one task (optional trace output). */
struct TaskSpan {
    double start = 0.0;
    double end = 0.0;
};

/**
 * Runs Algorithm 1 over a task graph.
 *
 * @param graph the task-granularity execution graph.
 * @param trace when non-null, receives the scheduled [start, end)
 *              interval of every task (timeline visualization).
 */
EngineResult runSimulation(const TaskGraph &graph,
                           std::vector<TaskSpan> *trace = nullptr);

/**
 * Replays an execution-ordered topology with the given durations: one
 * linear pass, bit-identical to runSimulation() over the same graph.
 *
 * @param topology  a topology in execution order (TaskGraph::expand).
 * @param durations per-task durations in task id order (the order
 *                  TaskGraph::durations() uses), one per task.
 * @param trace     like runSimulation(): spans indexed by task id.
 */
EngineResult replaySimulation(const TaskGraph::Topology &topology,
                              const std::vector<double> &durations,
                              std::vector<TaskSpan> *trace = nullptr);

/**
 * The chunk kernel replayBatch() runs its lockstep passes with.
 * Scalar is the portable fallback (compile-time-width chunks the
 * compiler autovectorizes at the build's baseline ISA); Avx2 is the
 * explicit 256-bit kernel (sim/replay_kernels.h), available only when
 * compiled in *and* the running CPU supports it.  Every kernel
 * produces bit-identical results — the choice is purely a throughput
 * knob, which is why the default entry points pick one automatically.
 */
enum class ReplayKernel { Scalar, Avx2 };

/** @return "scalar" or "avx2" (stable; used on /statz and in bench
 *  context blocks). */
const char *replayKernelName(ReplayKernel kernel);

/** @return true when the kernel's TU was compiled into this binary. */
bool replayKernelCompiled(ReplayKernel kernel);

/** @return true when the kernel is compiled in and the running CPU
 *  supports its ISA (util::cpuFeatures); Scalar is always usable. */
bool replayKernelUsable(ReplayKernel kernel);

/** @return the kernel auto-dispatch selects (resolved once per
 *  process; the cpuid probe is cached).  AVX2 when usable, else
 *  Scalar. */
ReplayKernel activeReplayKernel();

/**
 * Simulates K duration vectors over one shared topology in a single
 * cache-friendly pass.  The K points advance in lockstep through the
 * tasks: per task the K-wide inner loops (contiguous, branch free)
 * vectorize — explicitly via the AVX2 chunk kernel when the host
 * supports it, by autovectorization of the scalar chunks otherwise —
 * and the topology's metadata and child arrays are read once per task
 * instead of once per point.  Results are bit-identical to K
 * independent replaySimulation() calls, under every kernel.
 *
 * @param topology      a topology in execution order.
 * @param duration_sets K vectors, each in task id order.
 * @return one EngineResult per input vector, in order.
 */
std::vector<EngineResult>
replayBatch(const TaskGraph::Topology &topology,
            const std::vector<std::vector<double>> &duration_sets);

/**
 * replayBatch() pinned to one kernel (tests and benches compare
 * kernels with this; production callers use the auto overload).
 * Aborts when the kernel is not usable on this host.
 */
std::vector<EngineResult>
replayBatch(const TaskGraph::Topology &topology,
            const std::vector<std::vector<double>> &duration_sets,
            ReplayKernel kernel);

/**
 * The allocation-lean core of replayBatch: `count` duration vectors
 * given as raw pointers (each topology.meta.size() doubles, task id
 * order — not validated), results written into `results[0..count)`.
 * The batched simulator path uses this to replay its retime buffers
 * without copying.
 */
void replayBatchInto(const TaskGraph::Topology &topology,
                     const double *const *duration_sets, size_t count,
                     EngineResult *results, ReplayKernel kernel);

/**
 * Engine-mode counters: how each simulated run was timed.  Every run
 * is counted exactly once, by queue_runs, replay_runs or
 * batched_points.  The simulator ticks them as it times runs; the
 * serve layer aggregates one shared instance across requests and
 * reports it on GET /statz and /metricsz.
 */
struct EngineCounters {
    /** Duration vectors replayed alone, by an engine pass over one
     *  core (e.g. a single plan, cold or warm). */
    std::atomic<uint64_t> replay_runs{0};
    /** Template-less runs, timed by the queue engine (no template
     *  cache, a perturber, or the non-memoized ablation). */
    std::atomic<uint64_t> queue_runs{0};
    /** Duration vectors replayed alongside at least one other in one
     *  lockstep pass (replayBatch): one per distinct core and
     *  simulated micro-batch count, not per point. */
    std::atomic<uint64_t> batched_points{0};
    /** Batched points answered from another point's core (a
     *  batch-size scan's repeats), so never replayed themselves. */
    std::atomic<uint64_t> core_merges{0};
};

/** A point-in-time snapshot of EngineCounters. */
struct EngineStats {
    uint64_t replay_runs = 0;
    uint64_t queue_runs = 0;
    uint64_t batched_points = 0;
    uint64_t core_merges = 0;
};

/** @return a consistent-enough snapshot (relaxed loads). */
EngineStats snapshot(const EngineCounters &counters);

} // namespace vtrain

#endif // VTRAIN_SIM_ENGINE_H
