#include "util/cpu_features.h"

namespace vtrain {
namespace util {

namespace {

CpuFeatures
probe()
{
    CpuFeatures features;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    features.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
    return features;
}

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = probe();
    return features;
}

} // namespace util
} // namespace vtrain
