//! Quickstart: classify a small synthetic cube with the reference AMC
//! implementation and inspect every intermediate product.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hyperspec::prelude::*;

fn main() {
    // Build a 16x16 cube with three vertical material strips and 8 bands.
    let materials = [
        [90.0f32, 20.0, 10.0, 10.0, 30.0, 40.0, 20.0, 10.0],
        [10.0f32, 15.0, 80.0, 70.0, 20.0, 10.0, 10.0, 15.0],
        [20.0f32, 20.0, 20.0, 20.0, 70.0, 80.0, 60.0, 40.0],
    ];
    let dims = CubeDims::new(16, 16, 8);
    let cube = Cube::from_fn(dims, Interleave::Bip, |x, _, b| materials[x * 3 / 16][b])
        .expect("valid dimensions");
    println!(
        "cube: {}x{} pixels, {} bands ({} KiB as 16-bit sensor data)",
        dims.width,
        dims.height,
        dims.bands,
        dims.sensor_bytes() / 1024
    );

    // Step 1+2 of AMC: normalization + morphological MEI scores.
    let normalized = hyperspec::hsi::morphology::normalize_cube(&cube);
    let se = StructuringElement::square(3).expect("3x3");
    let (mei, morph) = hyperspec::hsi::morphology::mei(&normalized, &se);
    let peak = mei.scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    println!("MEI: peak score {peak:.4} (material boundaries light up)");
    println!(
        "erosion/dilation indices range over the SE's {} neighbours (max index seen: {})",
        se.len(),
        morph.max_index.iter().max().unwrap()
    );

    // Steps 3+4: endmember selection + unmixing-based labels.
    let amc = AmcClassifier::new(AmcConfig::paper_default(3));
    let out = amc.classify(&cube).expect("AMC");
    println!("extracted {} endmembers:", out.class_count());
    for (i, e) in out.endmembers.iter().enumerate() {
        println!(
            "  endmember {i}: selected near ({}, {}), MEI score {:.4}",
            e.x, e.y, e.score
        );
    }

    // Print the label map.
    println!("label map:");
    for y in 0..dims.height {
        let row: String = (0..dims.width)
            .map(|x| char::from(b'A' + out.label(x, y) as u8))
            .collect();
        println!("  {row}");
    }

    // The three strips should carry three distinct labels.
    let (a, b, c) = (out.label(1, 8), out.label(8, 8), out.label(14, 8));
    assert!(a != b && b != c && a != c, "three materials, three classes");
    println!("three strips separated: labels {a}, {b}, {c} — quickstart OK");
}
