//! Single-lane rates of the kernels a tile task calls, the one kernel-level
//! row `benchmark/` does not measure: every kernel of the fused QDWH graph
//! at the two tile sizes `auto_tile_nb` picks, all four scalar types, each
//! as a share of its own type's gemm and of the `d` gemm.
//!
//! Writes the `"tile_kernels"` section to `target/kernels_perf.json`
//! (`--out` to override).

use polar_bench::Args;
use polar_blas::{gemm, herk, trmm, trsm};
use polar_matrix::{Diag, Matrix, Op, Side, Uplo};
use polar_scalar::{Complex32, Complex64, Real, Scalar};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

fn rand_mat<S: Scalar>(m: usize, n: usize, seed: u64) -> Matrix<S> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    Matrix::from_fn(m, n, |_, _| {
        let re = next();
        let im = next();
        S::from_parts(S::Real::from_f64(re), S::Real::from_f64(im))
    })
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Single-lane rates of the kernels a tile task calls, at tile size `nb`:
/// `(name, GFlop/s)` with gemm first. Each runs inside
/// `rayon::serial_region`, as a `TaskDag` body does, on the operand shapes
/// the fused QDWH graph hands it (right-lower `trsm`/`trmm`, `herk` into a
/// lower triangle, blocked `geqrt`/`tsqrt`/`tsmqr`), with the flop counts
/// the graph attributes to the task.
fn tile_kernel_rates<S: Scalar>(nb: usize) -> Vec<(&'static str, f64)> {
    use polar_lapack::{geqrt_blocked_into, tsmqr_blocked, tsqrt_blocked_into, TileT};
    let tf = polar_blas::flops::type_factor(S::IS_COMPLEX);
    let nb3 = (nb as f64).powi(3);
    let (a, b0) = (rand_mat::<S>(nb, nb, 41), rand_mat::<S>(nb, nb, 42));
    // a lower triangle near the identity: repeated in-place solves and
    // multiplies with it stay bounded, so they need no reset between calls
    let mut l = rand_mat::<S>(nb, nb, 43);
    polar_blas::scale(S::from_f64(0.5 / nb as f64), l.as_mut());
    (0..nb).for_each(|i| l[(i, i)] = S::ONE);
    let r0 = Matrix::<S>::from_fn(nb, nb, |i, j| if i <= j { l[(j, i)] } else { S::ZERO });
    let mut tt = TileT::<S>::new(polar_lapack::DEFAULT_BLOCK.min(nb), nb);
    let (mut c, mut c2, mut r) = (b0.clone(), b0.clone(), r0.clone());
    let (lo, ct, nn) = (Uplo::Lower, Op::ConjTrans, Diag::NonUnit);
    let mut rows = Vec::new();
    let mut time = |name: &'static str, flops: f64, f: &mut dyn FnMut()| {
        let secs = rayon::serial_region(|| best_time(7, || (0..5).for_each(|_| f()))) / 5.0;
        rows.push((name, tf * flops / secs / 1e9));
    };
    time("gemm", 2.0 * nb3, &mut || {
        gemm(Op::NoTrans, Op::NoTrans, S::ONE, a.as_ref(), b0.as_ref(), S::ZERO, c2.as_mut())
    });
    time("herk", polar_blas::flops::herk(nb, nb), &mut || {
        herk(lo, ct, S::Real::ONE, a.as_ref(), S::Real::ZERO, c2.as_mut())
    });
    time("trsm", nb3, &mut || trsm(Side::Right, lo, ct, nn, S::ONE, l.as_ref(), c.as_mut()));
    time("trmm", nb3, &mut || trmm(Side::Right, lo, ct, nn, S::ONE, l.as_ref(), c.as_mut()));
    time("trtri", nb3 / 3.0, &mut || {
        polar_lapack::trtri_lower(l.as_ref(), c2.as_mut()).expect("nonsingular")
    });
    time("geqrt", 4.0 / 3.0 * nb3, &mut || {
        c.as_mut().copy_from(b0.as_ref());
        geqrt_blocked_into(&mut c, &mut tt)
    });
    time("tsqrt", 2.0 * nb3, &mut || {
        r.as_mut().copy_from(r0.as_ref());
        c.as_mut().copy_from(b0.as_ref());
        tsqrt_blocked_into(&mut r, &mut c, &mut tt)
    });
    // c and tt now hold the last tsqrt's reflectors
    time("tsmqr", 4.0 * nb3, &mut || tsmqr_blocked(ct, &c, &tt, r.as_mut(), c2.as_mut()));
    rows
}

/// The `"tile_kernels"` section: [`tile_kernel_rates`] at the two tile
/// sizes `auto_tile_nb` picks, all four types, each kernel also as a share
/// of its own type's gemm at the same size — the figure the n = 512
/// two-lane rows hide — and of the `d` gemm, the host's packed rate.
fn write_tile_kernels(j: &mut String) {
    eprintln!("single-lane tile kernels...");
    // A solve has allocated and freed whole matrices before its first tile
    // task runs, which lifts glibc's dynamic mmap and trim thresholds above
    // any pack buffer. Do the same here: at the default thresholds the two
    // 256 KB pack buffers of a `z` gemm at nb = 128 sit exactly on the
    // 512 KB trim threshold, every call gives them back and faults them in
    // again (99 faults per call), and the row reads 40 GFlop/s instead of
    // 62. (8 MB: glibc ignores freed blocks above 32 MB; `black_box`: an
    // unused allocation is compiled away.)
    drop(std::hint::black_box(Matrix::<f64>::zeros(1024, 1024)));
    j.push_str("  \"tile_kernels\": [\n");
    for nb in [128usize, 256] {
        let d = tile_kernel_rates::<f64>(nb);
        let d_gemm = d[0].1;
        let all = [
            ("d", polar_blas::microkernel::<f64>(), d),
            ("z", polar_blas::microkernel::<Complex64>(), tile_kernel_rates::<Complex64>(nb)),
            ("s", polar_blas::microkernel::<f32>(), tile_kernel_rates::<f32>(nb)),
            ("c", polar_blas::microkernel::<Complex32>(), tile_kernel_rates::<Complex32>(nb)),
        ];
        for (tag, kernel, rows) in &all {
            let _ =
                write!(j, "    {{\"type\": \"{tag}\", \"nb\": {nb}, \"microkernel\": \"{kernel}\"");
            for (name, g) in rows {
                let _ = write!(
                    j,
                    ", \"{name}_gflops\": {}, \"{name}_vs_gemm\": {}, \"{name}_vs_d_gemm\": {}",
                    json_f(*g),
                    json_f(g / rows[0].1),
                    json_f(g / d_gemm)
                );
            }
            j.push_str(if nb == 256 && *tag == "c" { "}\n" } else { "},\n" });
        }
    }
    j.push_str("  ]\n");
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".into()
    }
}

fn main() {
    let out: String = Args::parse().get("--out", String::from("target/kernels_perf.json"));

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"harness\": \"kernels_perf\",");
    j.push_str(&polar_bench::Provenance::collect().json_fields());
    #[cfg(target_arch = "x86_64")]
    let _ = writeln!(
        j,
        "  \"cpu\": {{\"avx2\": {}, \"fma\": {}, \"avx512f\": {}}},",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("avx512f")
    );
    #[cfg(not(target_arch = "x86_64"))]
    let _ = writeln!(j, "  \"cpu\": {{}},");
    write_tile_kernels(&mut j);
    j.push_str("}\n");

    polar_bench::create_out(&out).write_all(j.as_bytes()).expect("write kernels_perf json");
    println!("{j}");
}
