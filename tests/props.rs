//! Property-based tests over the core invariants.

use hyperspec::amc::layout;
use hyperspec::gpu::asm;
use hyperspec::hsi::{metrics, pixel, spectral};
use hyperspec::prelude::*;
use proptest::prelude::*;

fn radiance_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(1.0f32..5000.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- spectral distances -------------------------------------------

    #[test]
    fn sid_symmetric_nonnegative_and_zero_on_self(
        a in radiance_vec(12),
        b in radiance_vec(12),
    ) {
        let d_ab = spectral::sid(&a, &b);
        let d_ba = spectral::sid(&b, &a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() <= 1e-5 * (1.0 + d_ab.abs()));
        prop_assert!(spectral::sid(&a, &a) == 0.0);
    }

    #[test]
    fn sid_scale_invariant(a in radiance_vec(8), b in radiance_vec(8), k in 0.1f32..50.0) {
        let scaled: Vec<f32> = a.iter().map(|v| v * k).collect();
        let d1 = spectral::sid(&a, &b);
        let d2 = spectral::sid(&scaled, &b);
        prop_assert!((d1 - d2).abs() <= 1e-4 * (1.0 + d1.abs()), "{d1} vs {d2}");
    }

    #[test]
    fn normalization_yields_probability_vector(a in radiance_vec(16)) {
        let n = pixel::normalized(&a);
        let sum: f32 = n.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(n.iter().all(|&v| v >= 0.0));
    }

    // --- cube layout ----------------------------------------------------

    #[test]
    fn interleave_round_trips(
        w in 1usize..6, h in 1usize..6, bands in 1usize..7,
        seed in 0u64..1000,
    ) {
        let cube = Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
            ((x * 31 + y * 17 + b * 7 + seed as usize) % 97) as f32
        }).unwrap();
        for il in Interleave::ALL {
            let reencoded = cube.to_interleave(il).into_owned();
            let conv = reencoded.to_interleave(Interleave::Bip);
            prop_assert_eq!(&*conv, &cube);
        }
    }

    #[test]
    fn band_packing_round_trips(w in 1usize..5, h in 1usize..5, bands in 1usize..10) {
        let cube = Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
            (x + 10 * y + 100 * b) as f32
        }).unwrap();
        let packed = layout::pack_cube(&cube);
        let back = layout::unpack_cube(&packed, w, h, bands).unwrap();
        prop_assert_eq!(back, cube);
    }

    #[test]
    fn chunking_covers_every_line_once(
        h in 1usize..40, lines in 1usize..12, halo in 0usize..4,
    ) {
        let cube = Cube::zeros(CubeDims::new(3, h, 2), Interleave::Bip).unwrap();
        let mut covered = vec![0u32; h];
        for chunk in cube.chunks(Chunking::new(lines, halo)) {
            for dy in 0..chunk.body_lines {
                covered[chunk.y_start + dy] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    // --- morphology ------------------------------------------------------

    #[test]
    fn erosion_field_value_never_exceeds_dilation(
        seed in 0u64..500,
    ) {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state >> 40) as f32 / 16_777_216.0
        };
        let cube = Cube::from_fn(CubeDims::new(7, 6, 4), Interleave::Bip, |_, _, _| {
            10.0 + 100.0 * next()
        }).unwrap();
        let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
        let se = StructuringElement::square(3).unwrap();
        let m = hyperspec::hsi::morphology::erode_dilate(&norm, &se);
        for i in 0..m.min_value.len() {
            prop_assert!(m.min_value[i] <= m.max_value[i]);
            prop_assert!((m.min_index[i] as usize) < se.len());
            prop_assert!((m.max_index[i] as usize) < se.len());
        }
    }

    // --- assembler --------------------------------------------------------

    #[test]
    fn asm_round_trips_through_text(
        dst in 0u8..16, s0 in 0u8..16, c in 0u8..32, lane in 0u8..4, neg in any::<bool>(),
    ) {
        let src = format!(
            "MAD R{dst}, {}R{s0}.{}, C{c}, R{s0}\nMOV OC, R{dst}",
            if neg { "-" } else { "" },
            ['x', 'y', 'z', 'w'][lane as usize],
        );
        let p1 = asm::assemble(&src).unwrap();
        let p2 = asm::assemble(&p1.to_asm()).unwrap();
        prop_assert_eq!(p1, p2);
    }

    // --- unmixing -----------------------------------------------------------

    #[test]
    fn known_mixture_is_recovered(
        a0 in 0.05f64..0.95,
        seed in 0u64..100,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            20.0 + ((state >> 40) % 4000) as f32
        };
        let e0: Vec<f32> = (0..12).map(|_| next()).collect();
        let e1: Vec<f32> = (0..12).map(|_| next()).collect();
        // Skip degenerate draws where the endmembers nearly coincide.
        prop_assume!(spectral::sid(&e0, &e1) > 1e-3);
        let px: Vec<f32> = e0.iter().zip(&e1)
            .map(|(x, y)| (a0 as f32) * x + (1.0 - a0 as f32) * y)
            .collect();
        let model = LinearMixtureModel::new(&[&e0, &e1]).unwrap();
        let ab = model.abundances(&px, AbundanceConstraint::SumToOne).unwrap();
        prop_assert!((ab[0] - a0).abs() < 0.02, "{} vs {a0}", ab[0]);
        prop_assert!((ab.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    // --- metrics ---------------------------------------------------------

    #[test]
    fn confusion_matrix_invariants(
        labels in prop::collection::vec((0u16..4, 0u16..4), 1..200),
    ) {
        let truth: Vec<u16> = labels.iter().map(|&(t, _)| t).collect();
        let pred: Vec<u16> = labels.iter().map(|&(_, p)| p).collect();
        let cm = metrics::ConfusionMatrix::from_labels(&truth, &pred, 4).unwrap();
        prop_assert_eq!(cm.total() as usize, labels.len());
        let oa = cm.overall_accuracy();
        prop_assert!((0.0..=100.0).contains(&oa));
        prop_assert!(cm.kappa() <= 1.0 + 1e-12);
        let row_sum: u64 = (0..4).map(|t| cm.row_total(t)).sum();
        let col_sum: u64 = (0..4).map(|p| cm.col_total(p)).sum();
        prop_assert_eq!(row_sum, cm.total());
        prop_assert_eq!(col_sum, cm.total());
    }

    #[test]
    fn cluster_mapping_never_decreases_accuracy_vs_identity(
        labels in prop::collection::vec((0u16..3, 0u16..3), 10..100),
    ) {
        let truth: Vec<u16> = labels.iter().map(|&(t, _)| t).collect();
        let pred: Vec<u16> = labels.iter().map(|&(_, p)| p).collect();
        let direct = metrics::ConfusionMatrix::from_labels(&truth, &pred, 3)
            .unwrap()
            .overall_accuracy();
        let mapped = metrics::score_unsupervised(&truth, &pred, 3, 3)
            .unwrap()
            .overall_accuracy();
        // Majority mapping can only merge clusters onto their best class.
        prop_assert!(mapped >= direct - 1e-9, "{mapped} < {direct}");
    }

    // --- timing model -----------------------------------------------------

    #[test]
    fn modeled_gpu_time_monotone_in_work(extra in 1u64..1_000_000) {
        use hyperspec::gpu::counters::PassStats;
        use hyperspec::gpu::timing::gpu_time;
        let base = PassStats {
            fragments: 1000,
            instructions: 50_000,
            texel_fetches: 10_000,
            cache_hits: 9_000,
            cache_misses: 1_000,
            bytes_written: 16_000,
            bytes_uploaded: 1 << 20,
            bytes_downloaded: 1 << 16,
            passes: 5,
            tiles: 40,
        };
        let mut more = base;
        more.instructions += extra;
        let p = GpuProfile::geforce_7800gtx();
        prop_assert!(gpu_time(&more, &p).compute_s >= gpu_time(&base, &p).compute_s);
    }
}
