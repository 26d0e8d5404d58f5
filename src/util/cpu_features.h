/**
 * @file
 * Cached runtime CPU-feature probe.
 *
 * The engine's vectorized replay kernels (sim/replay_kernels.h) are
 * compiled per-ISA and selected at runtime, so one binary runs
 * everywhere: the dispatcher asks this probe which instruction sets
 * the *running* processor supports and falls back to the portable
 * scalar chunks otherwise.  The probe executes cpuid once (magic
 * static) and is thread-safe; off x86 (or off GCC/Clang) every
 * feature reports false.
 */
#ifndef VTRAIN_UTIL_CPU_FEATURES_H
#define VTRAIN_UTIL_CPU_FEATURES_H

namespace vtrain {
namespace util {

/** SIMD capabilities of the running processor. */
struct CpuFeatures {
    bool avx2 = false; //!< 256-bit integer + FMA-era vector ISA
};

/** @return the processor's features, probed once per process. */
const CpuFeatures &cpuFeatures();

} // namespace util
} // namespace vtrain

#endif // VTRAIN_UTIL_CPU_FEATURES_H
