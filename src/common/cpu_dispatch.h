#ifndef HYPERTUNE_COMMON_CPU_DISPATCH_H_
#define HYPERTUNE_COMMON_CPU_DISPATCH_H_

/// HT_TARGET_CLONES marks a hot elementwise kernel for function
/// multi-versioning: the compiler emits a baseline and an AVX2 body and
/// picks one at load time (GNU ifunc), so release builds stay portable
/// while wide registers are used where available.
///
/// Bit-identity note: this is only safe on loops whose per-element
/// operations are exact IEEE ops (add/sub/mul/div/sqrt) with no
/// loop-carried reduction — vectorizing those reorders nothing and
/// contracts nothing (the "avx2" feature flag does not enable FMA), so
/// every element's result is bit-identical to the scalar loop. Do not
/// apply it to accumulations (dot products, norms) whose order would be
/// reassociated.
///
/// Off under TSan: GCC instruments the ifunc resolvers target_clones emits,
/// and those resolvers run before the TSan runtime starts.
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define HT_TARGET_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define HT_TARGET_CLONES
#endif

#endif  // HYPERTUNE_COMMON_CPU_DISPATCH_H_
