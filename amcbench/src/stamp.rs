//! Host and configuration stamp, order statistics and process memory.

/// `(key, value)` lines identifying the host and configuration of a run.
pub fn host_stamp(workload: &str, seed: u64, trace: bool) -> Vec<(String, String)> {
    let mut stamp = vec![
        (
            "available_parallelism".to_owned(),
            std::thread::available_parallelism().map_or("unknown".to_owned(), |n| n.to_string()),
        ),
        (
            "worker_threads".to_owned(),
            rayon::max_threads().to_string(),
        ),
        ("cpu_model".to_owned(), cpu_model()),
        (
            "build_profile".to_owned(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
    ];
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("GPU_SIM_"))
        .collect();
    env.sort();
    if env.is_empty() {
        stamp.push(("GPU_SIM_*".to_owned(), "unset".to_owned()));
    }
    stamp.extend(env);
    stamp.push(("commit".to_owned(), commit()));
    stamp.push(("workload".to_owned(), workload.to_owned()));
    stamp.push(("seed".to_owned(), seed.to_string()));
    stamp.push(("trace".to_owned(), u8::from(trace).to_string()));
    stamp
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` in an export without one).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs").and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_owned)
                })
            }),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let [_, q2, _] = quartiles(xs);
    q2
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method); a single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [s[0]; 3],
        _ => [1, 2, 3].map(|i| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - (4 * j) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        }),
    }
}
