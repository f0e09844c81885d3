//! Criterion micro-benchmarks of the computational kernels: the
//! Gilbert–Peierls block factorization, the panel solve, the block
//! reduction, SpMV and the triangular solves.

use basker::reduce::reduce_block;
use basker_klu::gp::{
    factor_block_column, lsolve_panel, refactor_block_column, ColsView, RefactorWorkspace,
};
use basker_matgen::mesh2d;
use basker_sparse::blocks::extract_range;
use basker_sparse::spmv::spmv;
use basker_sparse::trisolve::{lower_solve_in_place, upper_solve_in_place};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_gp(c: &mut Criterion) {
    let a = mesh2d(28, 3);
    let mut g = c.benchmark_group("gp_kernel");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_function("factor_block_column", |b| {
        b.iter(|| factor_block_column(&a, &[], 0.001, 0).unwrap())
    });
    let mut blu = factor_block_column(&a, &[], 0.001, 0).unwrap();
    let mut ws = RefactorWorkspace::new();
    g.bench_function("refactor_block_column", |b| {
        b.iter(|| refactor_block_column(&mut blu, ColsView::of(&a), &[], 0, &mut ws).unwrap())
    });
    let panel_cols = extract_range(&a, 0..a.nrows(), 0..64);
    g.bench_function("lsolve_panel_64cols", |b| {
        b.iter(|| lsolve_panel(&blu, &panel_cols))
    });
    g.finish();
}

fn bench_reduce_and_spmv(c: &mut Criterion) {
    let a = mesh2d(24, 4);
    let blu = factor_block_column(&a, &[], 0.001, 0).unwrap();
    let u = lsolve_panel(&blu, &extract_range(&a, 0..a.nrows(), 0..48));
    let target = extract_range(&a, 0..a.nrows(), 0..48);
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_function("reduce_block", |b| {
        b.iter(|| reduce_block(&target, &[(&blu.l, &u)]))
    });
    let x = vec![1.0; a.ncols()];
    g.bench_function("spmv", |b| b.iter(|| spmv(&a, &x)));
    let mut rhs = vec![1.0; a.ncols()];
    g.bench_function("lower_solve", |b| {
        b.iter(|| {
            rhs.fill(1.0);
            lower_solve_in_place(&blu.l, &mut rhs, true);
        })
    });
    g.bench_function("upper_solve", |b| {
        b.iter(|| {
            rhs.fill(1.0);
            upper_solve_in_place(&blu.u, &mut rhs);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_gp, bench_reduce_and_spmv);
criterion_main!(benches);
