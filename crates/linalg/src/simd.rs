//! Run-time instruction-set dispatch for the crate's dense kernels.
//!
//! Each kernel is one `#[inline(always)]` body; [`multiversion!`]
//! compiles it three times — for AVX-512F, for AVX2 and for the portable
//! instruction set — and runs the build a [`Backend`] names. The bodies
//! use lane-wise IEEE multiplies and adds only (rustc never contracts
//! them to FMA), so every build returns the same bits. Under Miri, which
//! has no AVX, only the portable build exists.

/// The instruction set a dispatched kernel runs with.
///
/// A `Backend` names AVX-512F or AVX2 only once this CPU has been seen
/// to support it: [`Backend::detect`] and [`Backend::available`] are its
/// only constructors, and they check first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Backend(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    Avx2,
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    Avx512f,
}

impl Backend {
    /// The widest instruction set this CPU has: AVX-512F, then AVX2,
    /// then the portable build.
    pub(crate) fn detect() -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Backend(Isa::Avx512f);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Backend(Isa::Avx2);
            }
        }
        Backend(Isa::Portable)
    }

    /// Every instruction set this CPU has, the portable one first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Self> {
        let candidates = [
            Some(Backend(Isa::Portable)),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            std::arch::is_x86_feature_detected!("avx2").then_some(Backend(Isa::Avx2)),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            std::arch::is_x86_feature_detected!("avx512f").then_some(Backend(Isa::Avx512f)),
        ];
        candidates.into_iter().flatten().collect()
    }

    /// `"avx512f"`, `"avx2"` or `"scalar"`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "scalar",
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Isa::Avx2 => "avx2",
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Isa::Avx512f => "avx512f",
        }
    }

    /// Whether this backend names AVX-512F (so the CPU has it).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    pub(crate) fn avx512f(self) -> bool {
        self.0 == Isa::Avx512f
    }

    /// Whether this backend names AVX2 (so the CPU has it).
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    pub(crate) fn avx2(self) -> bool {
        self.0 == Isa::Avx2
    }
}

/// Defines `$name(backend, args…)`, which runs the `#[inline(always)]`
/// function `$body(args…)` compiled for `backend`'s instruction set.
/// Everything `$body` calls must be `#[inline(always)]` too, or it runs
/// with the portable build's codegen.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;
    ) => {
        $(#[$attr])*
        $vis fn $name(backend: $crate::simd::Backend, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            {
                /// The body compiled with AVX-512F codegen.
                ///
                /// # Safety
                ///
                /// The CPU must support AVX-512F: executing this build
                /// on one without it is undefined behaviour (an illegal
                /// instruction at best). The body is safe Rust.
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512f($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                /// The body compiled with AVX2 codegen.
                ///
                /// # Safety
                ///
                /// As for `avx512f`, with AVX2 in place of AVX-512F.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if backend.avx512f() {
                    // SAFETY: a backend names AVX-512F only on a CPU
                    // that has it.
                    return unsafe { avx512f($($arg),*) };
                }
                if backend.avx2() {
                    // SAFETY: a backend names AVX2 only on a CPU that
                    // has it.
                    return unsafe { avx2($($arg),*) };
                }
            }
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            let _ = backend;
            $body($($arg),*)
        }
    };
}

pub(crate) use multiversion;
