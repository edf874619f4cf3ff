//! Property-based tests for the sparse substrate.

use complx_sparse::{vector, CgSolver, CsrAssembler, CsrMatrix, TripletMatrix};
use proptest::prelude::*;

/// Strategy: a random SPD matrix built as a Laplacian over random edges plus
/// a strictly positive diagonal shift (guaranteeing positive-definiteness).
fn spd_matrix(n: usize, max_edges: usize) -> impl Strategy<Value = CsrMatrix> {
    let edges = proptest::collection::vec((0..n, 0..n, 0.01f64..10.0), 0..=max_edges);
    let shifts = proptest::collection::vec(0.1f64..5.0, n);
    (edges, shifts).prop_map(move |(edges, shifts)| {
        let mut t = TripletMatrix::new(n);
        for (i, j, w) in edges {
            if i != j {
                t.add_connection(i, j, w);
            }
        }
        for (i, s) in shifts.iter().enumerate() {
            t.add_diagonal(i, *s);
        }
        t.to_csr()
    })
}

/// Every stored entry as `(col, value bits)`, row by row.
fn csr_bits(a: &CsrMatrix) -> Vec<Vec<(usize, u64)>> {
    (0..a.dim())
        .map(|r| a.row(r).map(|(c, v)| (c, v.to_bits())).collect())
        .collect()
}

proptest! {
    /// The assembler equals concatenating its batches, converting once to
    /// read the diagonal, regularizing and converting again — bit for bit,
    /// with duplicates whose sums depend on their order, entries that
    /// cancel, and rows with no or a non-positive diagonal.
    #[test]
    fn assembler_matches_two_conversion_reference(
        stamps in proptest::collection::vec((0..3usize, 0..12usize, 0..12usize, -5i32..=5), 0..150),
    ) {
        let n = 12;
        let mut batches = vec![TripletMatrix::new(n); 3];
        let mut concat = TripletMatrix::new(n);
        for (b, batch) in batches.iter_mut().enumerate() {
            for &(k, r, c, v) in &stamps {
                if k == b {
                    batch.add(r, c, 0.1 * f64::from(v));
                    concat.add(r, c, 0.1 * f64::from(v));
                }
            }
        }
        let mut want_pulled = Vec::new();
        for (row, &d) in concat.to_csr().diagonal().iter().enumerate() {
            if d <= 0.0 {
                concat.add_diagonal(row, 1e-8);
                want_pulled.push(row);
            }
        }
        let mut pulled = Vec::new();
        let mut asm = CsrAssembler::new();
        let got = asm.assemble_regularized(n, &batches, 1e-8, |row| pulled.push(row));
        prop_assert_eq!(csr_bits(got), csr_bits(&concat.to_csr()));
        prop_assert_eq!(pulled, want_pulled);
    }

    #[test]
    fn cg_solves_random_spd_systems(
        a in spd_matrix(20, 60),
        xs in proptest::collection::vec(-100.0f64..100.0, 20),
    ) {
        let mut b = vec![0.0; 20];
        a.mul_vec(&xs, &mut b);
        let mut x = vec![0.0; 20];
        let stats = CgSolver::new().with_tolerance(1e-10).solve(&a, &b, &mut x);
        prop_assert!(stats.converged);
        // Residual check (the solution itself may be ill-conditioned).
        let mut ax = vec![0.0; 20];
        a.mul_vec(&x, &mut ax);
        let resid: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q).abs()).sum();
        let scale: f64 = b.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!(resid / scale < 1e-6, "residual {resid} scale {scale}");
    }

    #[test]
    fn laplacian_stamps_are_symmetric(a in spd_matrix(15, 40)) {
        prop_assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn spd_quadratic_form_is_positive(
        a in spd_matrix(10, 30),
        v in proptest::collection::vec(-10.0f64..10.0, 10),
    ) {
        let nonzero = v.iter().any(|&x| x.abs() > 1e-9);
        if nonzero {
            prop_assert!(a.quadratic_form(&v) > 0.0);
        }
    }

    #[test]
    fn triplet_accumulation_matches_sequential_sum(
        entries in proptest::collection::vec((0usize..5, 0usize..5, -10.0f64..10.0), 0..30)
    ) {
        let mut t = TripletMatrix::new(5);
        let mut dense = [[0.0f64; 5]; 5];
        for &(r, c, v) in &entries {
            t.add(r, c, v);
            dense[r][c] += v;
        }
        let a = t.to_csr();
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!((a.get(r, c) - dense[r][c]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mul_vec_is_linear(
        a in spd_matrix(8, 20),
        u in proptest::collection::vec(-5.0f64..5.0, 8),
        v in proptest::collection::vec(-5.0f64..5.0, 8),
        alpha in -3.0f64..3.0,
    ) {
        // A(u + αv) == Au + αAv
        let combined: Vec<f64> = u.iter().zip(&v).map(|(x, y)| x + alpha * y).collect();
        let mut lhs = vec![0.0; 8];
        a.mul_vec(&combined, &mut lhs);
        let mut au = vec![0.0; 8];
        let mut av = vec![0.0; 8];
        a.mul_vec(&u, &mut au);
        a.mul_vec(&v, &mut av);
        for i in 0..8 {
            prop_assert!((lhs[i] - (au[i] + alpha * av[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn norm_triangle_inequality(
        u in proptest::collection::vec(-100.0f64..100.0, 12),
        v in proptest::collection::vec(-100.0f64..100.0, 12),
    ) {
        let sum: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a + b).collect();
        prop_assert!(vector::norm2(&sum) <= vector::norm2(&u) + vector::norm2(&v) + 1e-9);
        prop_assert!(vector::norm1(&sum) <= vector::norm1(&u) + vector::norm1(&v) + 1e-9);
    }
}
