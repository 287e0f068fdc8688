//! ENVI-format cube I/O.
//!
//! AVIRIS products ship as a raw binary cube plus an ENVI ASCII header
//! describing dimensions, interleave and data type. This module writes and
//! reads that format (data type 4 = 32-bit float, band-interleave per the
//! header), which lets generated scenes round-trip to disk and be inspected
//! with standard remote-sensing tools.

use hsi::cube::{Cube, CubeDims, Interleave};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// Errors from ENVI I/O.
#[derive(Debug)]
pub enum EnviError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Header missing or malformed.
    BadHeader(String),
    /// Raw file size disagrees with the header.
    SizeMismatch {
        /// Samples expected from the header.
        expected: usize,
        /// f32 samples actually present.
        actual: usize,
    },
}

impl std::fmt::Display for EnviError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnviError::Io(e) => write!(f, "io: {e}"),
            EnviError::BadHeader(m) => write!(f, "bad ENVI header: {m}"),
            EnviError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "raw size mismatch: expected {expected} samples, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for EnviError {}

impl From<io::Error> for EnviError {
    fn from(e: io::Error) -> Self {
        EnviError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, EnviError>;

/// Write `cube` as `<path>` (raw little-endian f32) plus `<path>.hdr`.
pub fn write_cube(path: &Path, cube: &Cube, description: &str) -> Result<()> {
    let dims = cube.dims();
    let header = format!(
        "ENVI\n\
         description = {{{description}}}\n\
         samples = {}\n\
         lines = {}\n\
         bands = {}\n\
         header offset = 0\n\
         file type = ENVI Standard\n\
         data type = 4\n\
         interleave = {}\n\
         byte order = 0\n",
        dims.width,
        dims.height,
        dims.bands,
        cube.interleave().envi_name()
    );
    fs::write(hdr_path(path), header)?;
    let mut raw = fs::File::create(path)?;
    let mut buf = Vec::with_capacity(cube.data().len() * 4);
    for v in cube.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    raw.write_all(&buf)?;
    Ok(())
}

/// Read a cube written by [`write_cube`] (or any f32 ENVI cube).
pub fn read_cube(path: &Path) -> Result<Cube> {
    let header = fs::read_to_string(hdr_path(path))?;
    let get = |key: &str| -> Result<String> {
        header
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once('=')?;
                (k.trim().eq_ignore_ascii_case(key)).then(|| v.trim().to_string())
            })
            .ok_or_else(|| EnviError::BadHeader(format!("missing `{key}`")))
    };
    let samples: usize = get("samples")?
        .parse()
        .map_err(|_| EnviError::BadHeader("samples not an integer".into()))?;
    let lines: usize = get("lines")?
        .parse()
        .map_err(|_| EnviError::BadHeader("lines not an integer".into()))?;
    let bands: usize = get("bands")?
        .parse()
        .map_err(|_| EnviError::BadHeader("bands not an integer".into()))?;
    let dtype = get("data type")?;
    if dtype != "4" {
        return Err(EnviError::BadHeader(format!(
            "unsupported data type {dtype} (only 4 = f32)"
        )));
    }
    let interleave = Interleave::from_envi_name(&get("interleave")?)
        .ok_or_else(|| EnviError::BadHeader("unknown interleave".into()))?;

    let mut raw = Vec::new();
    fs::File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() % 4 != 0 {
        return Err(EnviError::BadHeader(
            "raw length not a multiple of 4".into(),
        ));
    }
    let actual = raw.len() / 4;
    let expected = samples
        .checked_mul(lines)
        .and_then(|n| n.checked_mul(bands))
        .ok_or_else(|| {
            EnviError::BadHeader(format!(
                "{samples} × {lines} × {bands} samples overflow the address space"
            ))
        })?;
    if actual != expected {
        return Err(EnviError::SizeMismatch { expected, actual });
    }
    let dims = CubeDims::new(samples, lines, bands);
    let data: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Cube::from_vec(dims, interleave, data)
        .map_err(|e| EnviError::BadHeader(format!("cube construction: {e}")))
}

fn hdr_path(path: &Path) -> std::path::PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".hdr");
    std::path::PathBuf::from(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::cube::Interleave;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hsi_envi_test_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_all_interleaves() {
        let dir = temp_dir("rt");
        for il in Interleave::ALL {
            let cube = Cube::from_fn(CubeDims::new(5, 4, 3), il, |x, y, b| {
                (x as f32) + 10.0 * (y as f32) + 0.5 * (b as f32)
            })
            .unwrap();
            let path = dir.join(format!("cube_{}.raw", il.envi_name()));
            write_cube(&path, &cube, "round trip test").unwrap();
            let back = read_cube(&path).unwrap();
            assert_eq!(back, cube);
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn header_contents() {
        let dir = temp_dir("hdr");
        let cube = Cube::zeros(CubeDims::new(7, 2, 9), Interleave::Bil).unwrap();
        let path = dir.join("cube.raw");
        write_cube(&path, &cube, "hello").unwrap();
        let header = fs::read_to_string(dir.join("cube.raw.hdr")).unwrap();
        assert!(header.starts_with("ENVI"));
        assert!(header.contains("samples = 7"));
        assert!(header.contains("lines = 2"));
        assert!(header.contains("bands = 9"));
        assert!(header.contains("interleave = bil"));
        assert!(header.contains("hello"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn size_mismatch_detected() {
        let dir = temp_dir("sz");
        let cube = Cube::zeros(CubeDims::new(4, 4, 2), Interleave::Bip).unwrap();
        let path = dir.join("cube.raw");
        write_cube(&path, &cube, "x").unwrap();
        // Truncate the raw file.
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 8]).unwrap();
        assert!(matches!(
            read_cube(&path),
            Err(EnviError::SizeMismatch { .. })
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn overflowing_header_sizes_rejected() {
        // 2^32 × 2^32 × 2^32 wraps to 0 in 64-bit arithmetic, which an
        // empty raw file would otherwise match.
        let dir = temp_dir("ovf");
        let path = dir.join("cube.raw");
        fs::write(&path, []).unwrap();
        for (samples, lines, bands) in [(1u64 << 32, 1u64 << 32, 1u64 << 32), (1 << 32, 1 << 32, 0)]
        {
            fs::write(
                dir.join("cube.raw.hdr"),
                format!(
                    "ENVI\nsamples = {samples}\nlines = {lines}\nbands = {bands}\n\
                     data type = 4\ninterleave = bip\n"
                ),
            )
            .unwrap();
            assert!(
                matches!(read_cube(&path), Err(EnviError::BadHeader(_))),
                "{samples} × {lines} × {bands}"
            );
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_header_key_detected() {
        let dir = temp_dir("kb");
        let path = dir.join("cube.raw");
        fs::write(&path, [0u8; 16]).unwrap();
        fs::write(dir.join("cube.raw.hdr"), "ENVI\nsamples = 2\n").unwrap();
        assert!(matches!(read_cube(&path), Err(EnviError::BadHeader(_))));
        fs::remove_dir_all(dir).ok();
    }
}
