//! Extended morphological filtering: opening/closing compositions (the
//! "sequences of extended morphological transformations" of the paper's
//! reference [11]) used to suppress sub-SE anomalies before classification.
//!
//! ```text
//! cargo run --release --example morphological_filtering
//! ```

use hyperspec::hsi::morphology::{self, StructuringElement};
use hyperspec::prelude::*;

fn main() {
    // Background material with a scattering of single-pixel anomalies.
    let bg = [60.0f32, 30.0, 15.0, 40.0];
    let hot = [10.0f32, 80.0, 70.0, 5.0];
    let dims = CubeDims::new(24, 24, 4);
    let anomalies = [(3usize, 4usize), (11, 7), (18, 15), (6, 20), (20, 3)];
    let cube = Cube::from_fn(dims, Interleave::Bip, |x, y, b| {
        if anomalies.contains(&(x, y)) {
            hot[b]
        } else {
            bg[b]
        }
    })
    .expect("valid dims");

    let se = StructuringElement::square(3).expect("3x3");
    let norm = morphology::normalize_cube(&cube);
    let (mei_before, _) = morphology::mei(&norm, &se);
    let peaks_before = mei_before.scores.iter().filter(|&&s| s > 1e-3).count();
    println!("before filtering: {peaks_before} high-MEI pixels (anomaly windows)");

    // Opening removes bright details smaller than the SE.
    let opened = morphology::open_image(&cube, &se);
    let norm_after = morphology::normalize_cube(&opened);
    let (mei_after, _) = morphology::mei(&norm_after, &se);
    let peaks_after = mei_after.scores.iter().filter(|&&s| s > 1e-3).count();
    println!("after opening:    {peaks_after} high-MEI pixels");
    assert_eq!(peaks_after, 0, "opening must remove sub-SE anomalies");

    // Every anomaly pixel was replaced by background material.
    for &(x, y) in &anomalies {
        assert_eq!(opened.pixel(x, y), bg.to_vec(), "anomaly at ({x},{y})");
    }
    println!(
        "all {} single-pixel anomalies removed by 3x3 opening",
        anomalies.len()
    );

    // Closing, by contrast, preserves this scene entirely (no dark holes).
    let closed = morphology::close_image(&cube, &se);
    let changed = (0..dims.height)
        .flat_map(|y| (0..dims.width).map(move |x| (x, y)))
        .filter(|&(x, y)| closed.pixel(x, y) != cube.pixel(x, y))
        .count();
    println!("closing changed {changed} pixels (bright anomalies survive a closing)");
}
