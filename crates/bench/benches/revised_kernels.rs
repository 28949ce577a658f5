//! Micro-benchmarks for the revised simplex kernels: sparse LU
//! factorization, FTRAN/BTRAN triangular solves and eta-file updates at
//! several basis sizes.
//!
//! These are the three operations every revised-simplex pivot is made of,
//! so their scaling with basis dimension is the scaling of the whole sparse
//! route (the end-to-end picture is `steady scaling-sweep`).  Two basis
//! families are benched, both with the few-nonzeros-per-column shape of the
//! steady-state collective LPs: strictly diagonally dominant sparse matrices
//! (guaranteed nonsingular; what a basis looks like mid-solve) and row-permuted
//! sparse *triangular* ones — the shape of the crash basis every cold revised
//! solve factorizes first, in the solve breakdown's `install` bucket.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use steady_bench::print_header;
use steady_lp::{CscMatrix, Eta, SparseLu};

/// A sparse strictly column-diagonally-dominant `m x m` matrix: diagonal
/// 4.0 plus up to three off-diagonal entries per column in `(0, 1]`.
fn dominant_basis(m: usize, rng: &mut StdRng) -> CscMatrix<f64> {
    let columns = (0..m)
        .map(|j| {
            let mut col = vec![(j, 4.0f64)];
            for _ in 0..3 {
                let i = rng.gen_range(0..m);
                if i != j && !col.iter().any(|&(r, _)| r == i) {
                    col.push((i, 0.1 + 0.9 * rng.gen::<f64>()));
                }
            }
            col
        })
        .collect();
    CscMatrix::from_columns(m, columns)
}

/// A sparse `m x m` matrix that is upper triangular up to a random row
/// permutation, like a crash basis: column `j` has a `±1` "diagonal" in row
/// `perm[j]` and up to two entries in rows of earlier columns.
fn triangular_basis(m: usize, rng: &mut StdRng) -> CscMatrix<f64> {
    let mut perm: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let columns = (0..m)
        .map(|j| {
            let mut col = vec![(perm[j], if rng.gen::<f64>() < 0.5 { 1.0 } else { -1.0 })];
            for _ in 0..2.min(j) {
                let i = perm[rng.gen_range(0..j)];
                if !col.iter().any(|&(r, _)| r == i) {
                    col.push((i, 0.1 + 0.9 * rng.gen::<f64>()));
                }
            }
            col
        })
        .collect();
    CscMatrix::from_columns(m, columns)
}

/// The triangular family draws from its own stream, so the dominant bases —
/// and the kernel rows tracked since before it existed — keep their inputs.
const TRIANGULAR_SEED: u64 = 11;

/// A right-hand side with a handful of nonzeros, like an entering column.
fn sparse_rhs(m: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut b = vec![0.0; m];
    for _ in 0..8 {
        b[rng.gen_range(0..m)] = rng.gen::<f64>() - 0.5;
    }
    b
}

fn reproduce() {
    print_header("Revised simplex kernels — LU / FTRAN / BTRAN / eta costs");
    println!("{:<12} {:<10} {:>10} {:>12}", "family", "basis m", "A nnz", "LU nnz");
    let mut rng = StdRng::seed_from_u64(7);
    let mut tri_rng = StdRng::seed_from_u64(TRIANGULAR_SEED);
    for m in [200usize, 500, 1000] {
        let cols: Vec<usize> = (0..m).collect();
        for (family, a) in [
            ("dominant", dominant_basis(m, &mut rng)),
            ("triangular", triangular_basis(m, &mut tri_rng)),
        ] {
            let lu = SparseLu::factorize(&a, &cols).expect("both families are nonsingular");
            println!("{family:<12} {m:<10} {:>10} {:>12}", a.nnz(), lu.nnz());
        }
    }
}

fn bench(c: &mut Criterion) {
    reproduce();
    let mut group = c.benchmark_group("revised_kernels");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(7);
    let mut tri_rng = StdRng::seed_from_u64(TRIANGULAR_SEED);
    for m in [200usize, 500, 1000] {
        let a = dominant_basis(m, &mut rng);
        let cols: Vec<usize> = (0..m).collect();
        let lu = SparseLu::factorize(&a, &cols).expect("dominant basis factorizes");
        let rhs = sparse_rhs(m, &mut rng);

        group.bench_with_input(BenchmarkId::new("factorize", m), &(), |b, ()| {
            b.iter(|| SparseLu::factorize(&a, &cols).expect("dominant basis factorizes"))
        });
        group.bench_with_input(BenchmarkId::new("ftran", m), &(), |b, ()| {
            b.iter(|| lu.ftran(rhs.clone()))
        });
        group.bench_with_input(BenchmarkId::new("btran", m), &(), |b, ()| {
            b.iter(|| lu.btran(rhs.clone()))
        });

        // The same three kernels over a crash-shaped basis: the singleton
        // pass retires all of it, with no fill and no Markowitz search.
        let tri = triangular_basis(m, &mut tri_rng);
        let tri_lu = SparseLu::factorize(&tri, &cols).expect("triangular basis factorizes");
        assert_eq!(tri_lu.nnz(), tri.nnz(), "a triangular basis factorizes without fill");
        group.bench_with_input(BenchmarkId::new("factorize_triangular", m), &(), |b, ()| {
            b.iter(|| SparseLu::factorize(&tri, &cols).expect("triangular basis factorizes"))
        });
        group.bench_with_input(BenchmarkId::new("ftran_triangular", m), &(), |b, ()| {
            b.iter(|| tri_lu.ftran(rhs.clone()))
        });
        group.bench_with_input(BenchmarkId::new("btran_triangular", m), &(), |b, ()| {
            b.iter(|| tri_lu.btran(rhs.clone()))
        });

        // Eta-file costs: build one eta from a solved column, then apply a
        // 64-deep eta file (one refactorization interval) in both
        // directions.
        let w = lu.ftran(sparse_rhs(m, &mut rng));
        let pos = w
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.abs().total_cmp(&y.abs()))
            .map(|(i, _)| i)
            .expect("basis dimension is positive");
        group.bench_with_input(BenchmarkId::new("eta_build", m), &(), |b, ()| {
            b.iter(|| Eta::from_dense(pos, &w))
        });
        let etas: Vec<Eta<f64>> = (0..64).map(|_| Eta::from_dense(pos, &w)).collect();
        group.bench_with_input(BenchmarkId::new("eta_file_ftran_64", m), &(), |b, ()| {
            b.iter(|| {
                let mut x = rhs.clone();
                for eta in &etas {
                    eta.apply_ftran(&mut x);
                }
                x
            })
        });
        group.bench_with_input(BenchmarkId::new("eta_file_btran_64", m), &(), |b, ()| {
            b.iter(|| {
                let mut z = rhs.clone();
                for eta in etas.iter().rev() {
                    eta.apply_btran(&mut z);
                }
                z
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
