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
///
/// Honours `header offset` (bytes skipped before the samples) and
/// `byte order` (0 little-endian, 1 big-endian); an absent key means 0.
pub fn read_cube(path: &Path) -> Result<Cube> {
    let header = fs::read_to_string(hdr_path(path))?;
    let find = |key: &str| {
        header.lines().find_map(|l| {
            let (k, v) = l.split_once('=')?;
            (k.trim().eq_ignore_ascii_case(key)).then(|| v.trim().to_string())
        })
    };
    let missing = |key: &str| EnviError::BadHeader(format!("missing `{key}`"));
    // An integer key; `default` is its value when absent (`None`: required).
    let integer = |key: &str, default: Option<usize>| -> Result<usize> {
        match find(key) {
            Some(v) => v
                .parse()
                .map_err(|_| EnviError::BadHeader(format!("{key} not an integer"))),
            None => default.ok_or_else(|| missing(key)),
        }
    };
    let samples = integer("samples", None)?;
    let lines = integer("lines", None)?;
    let bands = integer("bands", None)?;
    let offset = integer("header offset", Some(0))?;
    let decode: fn([u8; 4]) -> f32 = match integer("byte order", Some(0))? {
        0 => f32::from_le_bytes,
        1 => f32::from_be_bytes,
        other => {
            return Err(EnviError::BadHeader(format!(
                "byte order {other} (only 0 = little, 1 = big endian)"
            )))
        }
    };
    let dtype = find("data type").ok_or_else(|| missing("data type"))?;
    if dtype != "4" {
        return Err(EnviError::BadHeader(format!(
            "unsupported data type {dtype} (only 4 = f32)"
        )));
    }
    let interleave = find("interleave")
        .ok_or_else(|| missing("interleave"))
        .and_then(|name| {
            Interleave::from_envi_name(&name)
                .ok_or_else(|| EnviError::BadHeader("unknown interleave".into()))
        })?;

    let mut file = Vec::new();
    fs::File::open(path)?.read_to_end(&mut file)?;
    let raw = file.get(offset..).ok_or_else(|| {
        EnviError::BadHeader(format!(
            "header offset {offset} is past the end of the {}-byte file",
            file.len()
        ))
    })?;
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
        .map(|c| decode([c[0], c[1], c[2], c[3]]))
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

    /// Write `raw` and a header for a `dims` BIP cube with extra `keys`.
    fn write_raw(dir: &Path, dims: CubeDims, keys: &str, raw: &[u8]) -> std::path::PathBuf {
        let path = dir.join("cube.raw");
        fs::write(&path, raw).unwrap();
        fs::write(
            dir.join("cube.raw.hdr"),
            format!(
                "ENVI\nsamples = {}\nlines = {}\nbands = {}\n\
                 data type = 4\ninterleave = bip\n{keys}",
                dims.width, dims.height, dims.bands
            ),
        )
        .unwrap();
        path
    }

    fn ramp_cube(dims: CubeDims) -> Cube {
        Cube::from_fn(dims, Interleave::Bip, |x, y, b| {
            0.25 + x as f32 - 3.0 * y as f32 + 100.0 * b as f32
        })
        .unwrap()
    }

    #[test]
    fn big_endian_cube_reads_back() {
        let dir = temp_dir("be");
        let dims = CubeDims::new(3, 2, 4);
        let cube = ramp_cube(dims);
        let raw: Vec<u8> = cube.data().iter().flat_map(|v| v.to_be_bytes()).collect();
        let path = write_raw(&dir, dims, "byte order = 1\n", &raw);
        assert_eq!(read_cube(&path).unwrap(), cube);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn header_offset_is_skipped() {
        let dir = temp_dir("off");
        let dims = CubeDims::new(3, 2, 4);
        let cube = ramp_cube(dims);
        let mut raw = vec![0xAB; 17];
        raw.extend(cube.data().iter().flat_map(|v| v.to_le_bytes()));
        let path = write_raw(&dir, dims, "header offset = 17\n", &raw);
        assert_eq!(read_cube(&path).unwrap(), cube);
        // An offset past the end of the file is an error, not a panic.
        let path = write_raw(&dir, dims, "header offset = 4096\n", &raw);
        assert!(matches!(read_cube(&path), Err(EnviError::BadHeader(_))));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_byte_order_rejected() {
        let dir = temp_dir("bo");
        let dims = CubeDims::new(1, 1, 1);
        let path = write_raw(&dir, dims, "byte order = 2\n", &[0; 4]);
        assert!(matches!(read_cube(&path), Err(EnviError::BadHeader(_))));
        fs::remove_dir_all(dir).ok();
    }

    /// Header values the fuzz draws from; `None` leaves the key out.
    const VALUES: [Option<&str>; 13] = [
        None,
        Some("0"),
        Some("1"),
        Some("2"),
        Some("3"),
        Some("17"),
        Some("-1"),
        Some(""),
        Some("x"),
        Some("4294967296"),
        Some("18446744073709551615"),
        Some("18446744073709551616"),
        Some("1e3"),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]
        #[test]
        fn arbitrary_headers_and_raw_lengths_never_panic(
            picks in proptest::collection::vec(0..VALUES.len(), 5),
            raw_len in 0usize..128,
            fill in proptest::prelude::any::<u8>(),
        ) {
            let dir = temp_dir("fuzz");
            let keys = ["samples", "lines", "bands", "header offset", "byte order"];
            let mut header = String::from("ENVI\ndata type = 4\ninterleave = bsq\n");
            for (key, &pick) in keys.iter().zip(&picks) {
                if let Some(value) = VALUES[pick] {
                    header.push_str(&format!("{key} = {value}\n"));
                }
            }
            let path = dir.join("cube.raw");
            fs::write(&path, vec![fill; raw_len]).unwrap();
            fs::write(dir.join("cube.raw.hdr"), header).unwrap();
            // Any outcome but a panic.
            let _ = read_cube(&path);
            fs::remove_dir_all(dir).ok();
        }
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
