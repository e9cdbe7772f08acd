//! Execution-layer integration tests: the persistent pool really
//! persists (no per-call thread spawn), and a [`Workspace`] can be reused
//! across differently-shaped matrices.

use gcm_core::{BlockedMatrix, CompressedMatrix, Encoding};
use gcm_matrix::{CsrvMatrix, DenseMatrix, MatVec, ParallelCsrv, Workspace};

fn sample(rows: usize, cols: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if (r * 7 + c * 3) % 5 != 0 {
                m.set(r, c, (((r + c) % 6) + 1) as f64 * 0.25);
            }
        }
    }
    m
}

/// Repeated multiplications through `BlockedMatrix` and `ParallelCsrv`
/// must reuse the pool's workers: after a warm-up call has built the
/// global pool, no further OS thread is ever spawned.
#[test]
fn repeated_multiplications_spawn_no_threads() {
    let dense = sample(120, 9);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let bm = BlockedMatrix::compress(&csrv, Encoding::Re32, 4);
    let par = ParallelCsrv::split(&csrv, 4);

    let x = vec![1.0; 9];
    let yv = vec![0.5; 120];
    let mut y = vec![0.0; 120];
    let mut xo = vec![0.0; 9];
    let mut ws = Workspace::new();

    // Warm-up: first parallel call lazily builds the global pool.
    bm.right_multiply_into(&x, &mut y, &mut ws).unwrap();
    let spawned = rayon::threads_spawned();
    assert!(spawned >= 1, "warm-up must have built the pool");

    let b = DenseMatrix::zeros(9, 3);
    let mut out = DenseMatrix::zeros(120, 3);
    for _ in 0..50 {
        bm.right_multiply_into(&x, &mut y, &mut ws).unwrap();
        bm.left_multiply_into(&yv, &mut xo, &mut ws).unwrap();
        bm.right_multiply_matrix_into(&b, &mut out, &mut ws)
            .unwrap();
        par.right_multiply_into(&x, &mut y, &mut ws).unwrap();
        par.left_multiply_into(&yv, &mut xo, &mut ws).unwrap();
    }
    assert_eq!(
        rayon::threads_spawned(),
        spawned,
        "multiplications must reuse the persistent pool, not spawn threads"
    );
}

/// One workspace serves matrices of very different shapes: buffers are
/// resized transparently and results stay exact.
#[test]
fn workspace_reuse_across_shapes_resizes_cleanly() {
    let big_dense = sample(200, 16);
    let small_dense = sample(3, 5);
    let big = CompressedMatrix::compress(
        &CsrvMatrix::from_dense(&big_dense).unwrap(),
        Encoding::ReAns,
    );
    let small = CompressedMatrix::compress(
        &CsrvMatrix::from_dense(&small_dense).unwrap(),
        Encoding::Re32,
    );

    let mut ws = Workspace::new();
    let xb = vec![1.0; 16];
    let xs = vec![1.0; 5];
    let mut yb = vec![0.0; 200];
    let mut ys = vec![0.0; 3];
    let mut yb_ref = vec![0.0; 200];
    let mut ys_ref = vec![0.0; 3];
    big_dense.right_multiply(&xb, &mut yb_ref).unwrap();
    small_dense.right_multiply(&xs, &mut ys_ref).unwrap();

    // Interleave shapes: big → small → big → … through one workspace.
    for _ in 0..4 {
        big.right_multiply_into(&xb, &mut yb, &mut ws).unwrap();
        for (a, b) in yb.iter().zip(&yb_ref) {
            assert!((a - b).abs() < 1e-9);
        }
        small.right_multiply_into(&xs, &mut ys, &mut ws).unwrap();
        for (a, b) in ys.iter().zip(&ys_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    // Mismatched *vector* lengths still error cleanly with a workspace.
    assert!(big.right_multiply_into(&xs, &mut yb, &mut ws).is_err());
    assert!(big.right_multiply_into(&xb, &mut ys, &mut ws).is_err());

    // Explicit scratch of the wrong length errors instead of panicking.
    let mut w_bad = vec![0.0; 1];
    if big.num_rules() != 1 {
        assert!(big.right_multiply_with(&xb, &mut yb, &mut w_bad).is_err());
    }
}

/// Batched products through the blocked backend equal the column-at-a-time
/// reference for every encoding (batching ∘ row-block parallelism).
#[test]
fn blocked_batched_matches_column_loop() {
    let dense = sample(103, 11);
    let csrv = CsrvMatrix::from_dense(&dense).unwrap();
    let k = 7;
    let mut b = DenseMatrix::zeros(11, k);
    for i in 0..11 {
        for j in 0..k {
            b.set(i, j, ((i * k + j) % 9) as f64 * 0.5 - 2.0);
        }
    }
    let mut by = DenseMatrix::zeros(103, k);
    for i in 0..103 {
        for j in 0..k {
            by.set(i, j, ((i + 2 * j) % 7) as f64 - 3.0);
        }
    }
    let want_r = dense.right_multiply_matrix(&b).unwrap();
    let want_l = dense.left_multiply_matrix(&by).unwrap();
    for enc in Encoding::ALL {
        for blocks in [1usize, 3, 8] {
            let bm = BlockedMatrix::compress(&csrv, enc, blocks);
            let got_r = bm.right_multiply_matrix(&b).unwrap();
            let got_l = bm.left_multiply_matrix(&by).unwrap();
            for i in 0..103 {
                for j in 0..k {
                    assert!(
                        (got_r.get(i, j) - want_r.get(i, j)).abs() < 1e-9,
                        "{} blocks={blocks} right ({i},{j})",
                        enc.name()
                    );
                }
            }
            for i in 0..11 {
                for j in 0..k {
                    assert!(
                        (got_l.get(i, j) - want_l.get(i, j)).abs() < 1e-9,
                        "{} blocks={blocks} left ({i},{j})",
                        enc.name()
                    );
                }
            }
        }
    }
}
