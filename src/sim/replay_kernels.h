/**
 * @file
 * Vectorized replay-chunk kernels: the ISA dispatch boundary.
 *
 * Each kernel runs one fixed-width lockstep pass over an
 * execution-ordered TaskGraph::Topology, exactly mirroring engine.cc's
 * scalar replayChunk<K> — same arrays, same per-task loads, and the
 * same per-lane operation order — so every width and every ISA
 * produces bit-identical EngineResults:
 *
 *   - the accumulation path contains only IEEE additions and maxima
 *     (no multiplies), so FMA contraction cannot apply; the kernel
 *     TUs are built with -ffp-contract=off anyway as a belt;
 *   - vmaxpd picks the second operand on ties while std::max picks
 *     the first, but every operand here is a non-negative, non-NaN
 *     time (durations are finite and >= 0, accumulators start at
 *     +0.0), so a tie is a tie between equal bit patterns.
 *
 * This header is deliberately intrinsics-free: <immintrin.h> may
 * appear only inside src/sim/replay_kernels_*.cc, each compiled with
 * exactly its ISA flag (scripts/lint.py `intrinsics` rule enforces
 * the boundary).  Callers never reach a kernel directly — engine.cc's
 * replayBatch dispatches on the runtime util::cpuFeatures() probe and
 * on whether the TU was compiled in (VTRAIN_REPLAY_KERNEL_* from
 * CMake); when either gate fails the portable scalar chunks run.
 */
#ifndef VTRAIN_SIM_REPLAY_KERNELS_H
#define VTRAIN_SIM_REPLAY_KERNELS_H

#include <cstddef>
#include <vector>

#include "graph/task_graph.h"
#include "kernels/kernel.h"
#include "sim/engine.h"

namespace vtrain {
namespace detail {

/** Lockstep width of the AVX2 kernel (doubles per __m256d). */
constexpr size_t kAvx2ReplayWidth = 4;

/** @return true when the AVX2 kernel TU was compiled into this
 *  binary (the compiler accepted -mavx2 on an x86-64 target).  Says
 *  nothing about the running CPU — see engine.h replayKernelUsable. */
bool replayKernelAvx2Compiled();

/** Accumulator slots one task updates (see replayLanes). */
struct ReplayLanes {
    size_t timeline; //!< device * kNumStreams + stream
    size_t busy;     //!< device * 2 + (stream != Compute)
    size_t tag;      //!< TaskTag index, for time_by_tag
};

/**
 * @return the accumulator slots of a task.  The busy slot is kept
 * apart from the timeline slot so the compute/comm split accumulates
 * in exactly the queue engine's order (bit-identical sums).
 */
inline ReplayLanes
replayLanes(const TaskGraph::TaskMeta &meta)
{
    const auto device = static_cast<size_t>(meta.device);
    return ReplayLanes{
        device * kNumStreams + static_cast<size_t>(meta.stream),
        device * 2 + (meta.stream != StreamKind::Compute ? 1u : 0u),
        static_cast<size_t>(meta.tag)};
}

/**
 * One kAvx2ReplayWidth-wide lockstep pass over the topology.
 * `set_ptrs` holds kAvx2ReplayWidth duration vectors (task id order,
 * topology.meta.size() entries each); `ready_vec` is caller scratch
 * reused across chunks; `results` receives one EngineResult per lane.
 * Aborts if the kernel was not compiled in.
 */
void replayChunkAvx2(const TaskGraph::Topology &topology,
                     const double *const *set_ptrs,
                     std::vector<double> &ready_vec,
                     EngineResult *results);

/**
 * Splits a chunk's interleaved accumulators into per-point
 * EngineResults — the one unpack every chunk width shares, so the
 * result layout cannot drift between the scalar and vector kernels.
 */
inline void
unpackChunkResults(size_t k, const TaskGraph::Topology &topology,
                   const double *busy, const double *tags,
                   const double *makespan, EngineResult *results)
{
    const size_t n = topology.meta.size();
    const int n_devices = topology.num_devices;
    for (size_t j = 0; j < k; ++j) {
        EngineResult &result = results[j];
        result.makespan = makespan[j];
        result.executed = n;
        result.busy_compute.resize(n_devices);
        result.busy_comm.resize(n_devices);
        for (int d = 0; d < n_devices; ++d) {
            result.busy_compute[d] =
                busy[(static_cast<size_t>(d) * 2) * k + j];
            result.busy_comm[d] =
                busy[(static_cast<size_t>(d) * 2 + 1) * k + j];
        }
        for (int t = 0; t < kNumTaskTags; ++t)
            result.time_by_tag[t] =
                tags[static_cast<size_t>(t) * k + j];
    }
}

} // namespace detail
} // namespace vtrain

#endif // VTRAIN_SIM_REPLAY_KERNELS_H
