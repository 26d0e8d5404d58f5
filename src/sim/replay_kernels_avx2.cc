/**
 * @file
 * AVX2 replay kernel: four duration vectors per 256-bit lane group.
 *
 * Compiled with -mavx2 -ffp-contract=off (CMake source property) and
 * only ever entered through engine.cc's runtime dispatch, so the
 * binary stays runnable on pre-AVX2 processors.  The loop body is the
 * scalar replayChunk<4> with each 4-wide j-loop collapsed into one
 * vector op; see replay_kernels.h for the bit-identity argument.
 */
#include "sim/replay_kernels.h"

#include "util/logging.h"

#if defined(VTRAIN_REPLAY_KERNEL_AVX2)

#include <immintrin.h>

namespace vtrain {
namespace detail {

bool
replayKernelAvx2Compiled()
{
    return true;
}

void
replayChunkAvx2(const TaskGraph::Topology &topology,
                const double *const *set_ptrs,
                std::vector<double> &ready_vec, EngineResult *results)
{
    constexpr size_t K = kAvx2ReplayWidth;
    const size_t n = topology.meta.size();
    const int n_devices = topology.num_devices;
    const TaskGraph::TaskMeta *const meta = topology.meta.data();
    const int32_t *const child_offsets = topology.child_offsets.data();
    const int32_t *const child_list = topology.child_list.data();

    const double *__restrict const s0 = set_ptrs[0];
    const double *__restrict const s1 = set_ptrs[1];
    const double *__restrict const s2 = set_ptrs[2];
    const double *__restrict const s3 = set_ptrs[3];

    ready_vec.assign(n * K, 0.0);
    double *__restrict const ready = ready_vec.data();
    std::vector<double> timeline_vec(
        static_cast<size_t>(n_devices) * kNumStreams * K, 0.0);
    std::vector<double> busy_vec(
        static_cast<size_t>(n_devices) * 2 * K, 0.0);
    std::vector<double> tags_vec(
        static_cast<size_t>(kNumTaskTags) * K, 0.0);
    double *__restrict const timeline = timeline_vec.data();
    double *__restrict const busy = busy_vec.data();
    double *__restrict const tags = tags_vec.data();

    __m256d makespan = _mm256_setzero_pd();
    for (size_t i = 0; i < n; ++i) {
        const __m256d duration = _mm256_set_pd(s3[i], s2[i], s1[i], s0[i]);
        const ReplayLanes lanes = replayLanes(meta[i]);
        double *const lane_base = timeline + lanes.timeline * K;
        double *const busy_base = busy + lanes.busy * K;
        double *const tag_base = tags + lanes.tag * K;

        const __m256d start = _mm256_max_pd(
            _mm256_loadu_pd(ready + i * K), _mm256_loadu_pd(lane_base));
        const __m256d end = _mm256_add_pd(start, duration);
        _mm256_storeu_pd(lane_base, end);
        _mm256_storeu_pd(busy_base,
                         _mm256_add_pd(_mm256_loadu_pd(busy_base),
                                       duration));
        _mm256_storeu_pd(tag_base,
                         _mm256_add_pd(_mm256_loadu_pd(tag_base),
                                       duration));
        makespan = _mm256_max_pd(makespan, end);

        for (const int32_t *c = child_list + child_offsets[i],
                           *const c_end =
                               child_list + child_offsets[i + 1];
             c != c_end; ++c) {
            double *const child_ready =
                ready + static_cast<size_t>(*c) * K;
            _mm256_storeu_pd(
                child_ready,
                _mm256_max_pd(_mm256_loadu_pd(child_ready), end));
        }
    }

    alignas(32) double makespan_arr[K];
    _mm256_store_pd(makespan_arr, makespan);
    unpackChunkResults(K, topology, busy, tags, makespan_arr, results);
}

} // namespace detail
} // namespace vtrain

#else // !VTRAIN_REPLAY_KERNEL_AVX2

namespace vtrain {
namespace detail {

bool
replayKernelAvx2Compiled()
{
    return false;
}

void
replayChunkAvx2(const TaskGraph::Topology &, const double *const *,
                std::vector<double> &, EngineResult *)
{
    VTRAIN_CHECK(false, "AVX2 replay kernel was not compiled into "
                        "this binary (dispatch bug)");
}

} // namespace detail
} // namespace vtrain

#endif // VTRAIN_REPLAY_KERNEL_AVX2
