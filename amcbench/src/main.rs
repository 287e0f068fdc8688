//! Closed-loop AMC benchmark.
//!
//! Runs one named workload as a closed loop — one process, one scene in
//! flight, the worker pool pinned to [`THREADS`] — checks every scene's
//! outputs outside the timed region, and prints each metric by name with its
//! unit. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --offline --manifest-path amcbench/Cargo.toml -- \
//!     --workload hybrid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, all from untraced scenes.
//! `--trace 1` runs every scene twice, untraced and traced, and reports the
//! per-layer metrics. `README.md` next to this crate defines every metric.

mod check;
mod layers;
mod stamp;
mod workload;

use check::{splitmix64, SceneReference};
use hsi::classify::{AmcClassifier, AmcConfig, AmcOutput};
use hsi::metrics::score_unsupervised;
use layers::{GpuCounters, Outside, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Drivers, SceneOut, Workload, ACCURACY_CLASSES};

/// Worker threads of the pool, whatever the host offers.
const THREADS: usize = 2;
/// Fresh cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 8;
/// Timed scenes per run even when `--seconds` runs out first.
const MIN_SCENES: usize = 5;

/// Seed streams, so cold, timed and replayed scenes never share input.
const COLD_STREAM: u64 = 1;
const TIMED_STREAM: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or(format!(
                        "unknown workload {value:?} (known: {})",
                        Workload::ALL.map(Workload::name).join(", ")
                    ))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Input seed of scene `k` of one stream. Each word is mixed in through a
/// full SplitMix64 round, so nearby workload seeds share no scene.
fn scene_seed(seed: u64, stream: u64, k: usize) -> u64 {
    let mut state = seed;
    for word in [stream, k as u64] {
        state = splitmix64(&mut state) ^ word;
    }
    splitmix64(&mut state)
}

/// Scenes attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("amcbench: {what} failed: {e}");
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// What must repeat exactly across scenes of one workload: the geometry is
/// fixed, so the simulated work and the modeled time are too. Texture-cache
/// hits and misses are left out: the MEI stage's dependent fetches follow
/// the min/max indices, so they vary with the data. They must still repeat
/// for the same input, which [`same_outputs`] checks.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    fragments: u64,
    instructions: u64,
    texel_fetches: u64,
    bytes: [u64; 3],
    passes: u64,
    tiles: u64,
    chunks: usize,
    modeled_ms_bits: u64,
}

impl Fingerprint {
    fn of(workload: Workload, out: &SceneOut) -> Self {
        let p = &out.pipeline;
        let s = &p.stats;
        Self {
            fragments: s.fragments,
            instructions: s.instructions,
            texel_fetches: s.texel_fetches,
            bytes: [s.bytes_written, s.bytes_uploaded, s.bytes_downloaded],
            passes: s.passes,
            tiles: s.tiles,
            chunks: p.chunks,
            modeled_ms_bits: gpu_sim::timing::gpu_time(s, &workload.profile())
                .total_ms()
                .to_bits(),
        }
    }
}

/// Bit-identity of everything two runs of one scene return.
fn same_outputs(a: &SceneOut, b: &SceneOut) -> Result<(), String> {
    let (pa, pb) = (&a.pipeline, &b.pipeline);
    let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(&pa.mei.scores) != bits(&pb.mei.scores) {
        return Err("MEI differs".into());
    }
    if pa.min_index != pb.min_index || pa.max_index != pb.max_index {
        return Err("min/max indices differ".into());
    }
    if pa.stats != pb.stats || pa.stages != pb.stages {
        return Err("simulated counters differ".into());
    }
    if a.tails.len() != b.tails.len()
        || a.tails
            .iter()
            .zip(&b.tails)
            .any(|(x, y)| x.out.labels != y.out.labels)
    {
        return Err("labels differ".into());
    }
    Ok(())
}

/// Everything one run measured and checked.
struct Run {
    args: Args,
    tally: Tally,
    self_test: Result<(), String>,
    setup_s: Vec<f64>,
    cold_counters: Vec<GpuCounters>,
    accuracy_pct: Vec<f64>,
    fingerprint: Option<Fingerprint>,
    scene_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    layer_sums: BTreeMap<&'static str, f64>,
    layer_scenes: usize,
    report: Vec<String>,
    fatal: Option<String>,
    near_ties: usize,
}

impl Run {
    fn new(args: Args) -> Self {
        Self {
            args,
            tally: Tally::default(),
            self_test: Err("no cold start completed".into()),
            setup_s: Vec::new(),
            cold_counters: Vec::new(),
            accuracy_pct: Vec::new(),
            fingerprint: None,
            scene_walls: Vec::new(),
            traced_walls: Vec::new(),
            layer_sums: BTreeMap::new(),
            layer_scenes: 0,
            report: Vec::new(),
            fatal: None,
            near_ties: 0,
        }
    }

    /// Check one scene's outputs against the CPU oracles and the workload's
    /// fingerprint. `classifications` are the scene's tails plus any made
    /// outside the scene.
    fn check(
        &mut self,
        cube: &hsi::cube::Cube,
        drivers: &Drivers,
        out: &SceneOut,
        classifications: &[&AmcOutput],
        sample_seed: u64,
    ) -> Result<SceneReference, String> {
        let reference = SceneReference::compute(cube, drivers.se(), classifications, sample_seed)?;
        let verdict = reference.verdict(cube, drivers.se(), out, classifications);
        self.near_ties += verdict.near_ties;
        if verdict.failures != 0 {
            return Err(format!(
                "{} outputs differ from the CPU oracles",
                verdict.failures
            ));
        }
        let fp = Fingerprint::of(self.args.workload, out);
        match &self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if *first != fp => {
                return Err(format!(
                    "simulated counters drifted: {fp:?} after {first:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(reference)
    }

    /// Build fresh drivers and run their first scene, `COLD_STARTS` times.
    /// Returns the last drivers (now warm) and the first cold scene's seed
    /// and outputs, for the replay check.
    fn cold_starts(&mut self) -> Result<(Drivers, u64, SceneOut), String> {
        let w = self.args.workload;
        let mut kept = None;
        let mut first = None;
        for i in 0..COLD_STARTS {
            let seed = scene_seed(self.args.seed, COLD_STREAM, i);
            let scene = w.scene(seed);
            // The previous cold start's drivers go first, so no two sets of
            // drivers are ever alive at once.
            drop(kept.take());
            let before = GpuCounters::from_snapshot(&trace::metrics::snapshot());
            let t = Instant::now();
            let mut drivers = Drivers::new(w);
            let result = drivers.run(&scene.cube);
            let setup_s = t.elapsed().as_secs_f64();
            let counters = GpuCounters::from_snapshot(&trace::metrics::snapshot()).since(before);
            let checked = result.and_then(|out| {
                // An MEI-only workload is scored through the same c = 32
                // classification, made here, outside the measured set-up.
                let extra = if w.class_counts().is_empty() {
                    Some(
                        AmcClassifier::new(AmcConfig::paper_default(ACCURACY_CLASSES))
                            .classify_with_mei(&scene.cube, out.pipeline.mei.clone())
                            .map_err(|e| e.to_string())?,
                    )
                } else {
                    None
                };
                let mut classifications = out.classifications();
                classifications.extend(extra.iter());
                let reference = self.check(&scene.cube, &drivers, &out, &classifications, seed)?;
                if i == 0 {
                    self.self_test = reference.self_test(
                        &scene.cube,
                        drivers.se(),
                        &out,
                        &classifications,
                        seed,
                    );
                }
                let scored = out
                    .scored_tail()
                    .map(|t| &t.out)
                    .or(extra.as_ref())
                    .expect("every workload scores a c = 32 classification");
                let cm = score_unsupervised(
                    &scene.ground_truth,
                    &scored.labels,
                    scored.class_count(),
                    scene.class_count(),
                )
                .map_err(|e| e.to_string())?;
                self.accuracy_pct.push(cm.overall_accuracy());
                self.setup_s.push(setup_s);
                self.cold_counters.push(counters);
                Ok(out)
            });
            let ok = checked.as_ref().map(|_| ()).map_err(Clone::clone);
            self.tally.record(&format!("cold start {i}"), ok);
            if let (0, Ok(out)) = (i, checked) {
                first = Some((seed, out));
            }
            kept = Some(drivers);
        }
        let (seed, out) = first.ok_or("the first cold start failed")?;
        Ok((kept.expect("COLD_STARTS > 0"), seed, out))
    }

    /// Re-run the first cold scene on the warm drivers: its outputs must be
    /// bit-identical, so accuracy and counts repeat for a seed.
    fn replay(&mut self, drivers: &mut Drivers, seed: u64, cold: &SceneOut) {
        let scene = self.args.workload.scene(seed);
        let result = drivers
            .run(&scene.cube)
            .and_then(|out| same_outputs(cold, &out));
        self.tally.record("replay of cold scene 0", result);
    }

    /// The closed loop of untraced, timed scenes.
    fn timed_loop(&mut self, drivers: &mut Drivers) {
        let w = self.args.workload;
        let start = Instant::now();
        let mut k = 0;
        while k < MIN_SCENES || start.elapsed().as_secs_f64() < self.args.seconds {
            let seed = scene_seed(self.args.seed, TIMED_STREAM, k);
            let scene = w.scene(seed);
            let (result, wall_s) = timed_run(drivers, &scene.cube);
            let result = result.and_then(|out| {
                self.check(&scene.cube, drivers, &out, &out.classifications(), seed)
                    .map(|_| ())
            });
            if result.is_ok() {
                self.scene_walls.push(wall_s);
            }
            self.tally.record(&format!("timed scene {k}"), result);
            k += 1;
        }
    }

    /// Every scene untraced and traced, in alternating order; per-layer
    /// metrics come from the traced run, the overhead from the pair.
    fn traced_loop(&mut self, drivers: &mut Drivers) {
        let w = self.args.workload;
        let start = Instant::now();
        let mut k = 0;
        while k < MIN_SCENES || start.elapsed().as_secs_f64() < self.args.seconds {
            let seed = scene_seed(self.args.seed, TIMED_STREAM, k);
            let scene = w.scene(seed);
            let mut plain = (k % 2 == 0).then(|| timed_run(drivers, &scene.cube));
            trace::metrics::reset();
            trace::reset();
            trace::enable();
            let (traced, traced_wall) = {
                let _arm = trace::span("bench.arm", w.name());
                timed_run(drivers, &scene.cube)
            };
            trace::disable();
            let snap = trace::snapshot_events();
            let registry = trace::metrics::snapshot();
            let (plain, plain_wall) = plain
                .take()
                .unwrap_or_else(|| timed_run(drivers, &scene.cube));
            if k == 0 {
                self.write_trace_files(&snap);
            }
            let result = (|| {
                let (plain, traced) = (plain?, traced?);
                same_outputs(&plain, &traced)
                    .map_err(|e| format!("tracing changed outputs: {e}"))?;
                self.check(&scene.cube, drivers, &plain, &plain.classifications(), seed)?;
                let outside = Outside::measure(w, drivers, &scene.cube, &traced)?;
                let layers =
                    layers::scene_layers(w, &traced, traced_wall, &snap, &registry, &outside)?;
                for (name, v) in layers {
                    *self.layer_sums.entry(name).or_insert(0.0) += v;
                }
                self.layer_scenes += 1;
                self.scene_walls.push(plain_wall);
                self.traced_walls.push(traced_wall);
                Ok(())
            })();
            self.tally.record(&format!("traced scene {k}"), result);
            k += 1;
        }
    }

    /// The Chrome trace and the analyzer's text report of the first traced
    /// scene, next to this crate.
    fn write_trace_files(&mut self, snap: &trace::TraceSnapshot) {
        let path = out_path(self.args.workload, self.args.seed, "trace.json");
        match trace::write_chrome_trace(&path) {
            Ok(()) => self
                .report
                .push(format!("chrome trace: {}", path.display())),
            Err(e) => eprintln!("amcbench: cannot write {}: {e}", path.display()),
        }
        let analysis = trace::analyze::render_text(&trace::analyze::analyze(snap));
        self.report
            .push("trace analysis of the first traced scene:".into());
        self.report.extend(analysis.lines().map(str::to_owned));
    }

    fn failed(&self) -> u64 {
        self.tally.failures.len() as u64
    }

    /// `(name, value, unit)` of every metric this mode reports.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.args.trace {
            let n = self.layer_scenes.max(1) as f64;
            let mut m: BTreeMap<&'static str, f64> =
                self.layer_sums.iter().map(|(&k, &v)| (k, v / n)).collect();
            for (i, (name, _)) in GpuCounters::default().rows(true).into_iter().enumerate() {
                let values: Vec<f64> = self
                    .cold_counters
                    .iter()
                    .map(|c| c.rows(true)[i].1)
                    .collect();
                m.insert(name, stamp::median(&values));
            }
            m.insert(
                "trace.overhead_pct",
                100.0
                    * (stamp::median(&self.traced_walls) / stamp::median(&self.scene_walls) - 1.0),
            );
            m.insert(
                "check.near_ties",
                self.near_ties as f64 / self.tally.attempted.max(1) as f64,
            );
            m.insert(
                "check.failed_pct",
                100.0 * self.failed() as f64 / self.tally.attempted.max(1) as f64,
            );
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(f64::NAN), unit))
                .collect()
        } else {
            vec![
                ("scene_p50_s", stamp::median(&self.scene_walls), "s"),
                ("setup_s", stamp::median(&self.setup_s), "s"),
                (
                    "peak_rss_mb",
                    stamp::peak_rss_mib().unwrap_or(f64::NAN),
                    "MiB",
                ),
                ("accuracy_pct", mean(&self.accuracy_pct), "%"),
            ]
        }
    }
}

/// Where the traced run leaves its files: `out/` next to this crate.
fn out_path(workload: Workload, seed: u64, ext: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{seed}.{ext}", workload.name()))
}

/// One scene and its wall seconds.
fn timed_run(drivers: &mut Drivers, cube: &hsi::cube::Cube) -> (Result<SceneOut, String>, f64) {
    let t = Instant::now();
    let out = drivers.run(cube);
    (out, t.elapsed().as_secs_f64())
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn run(args: Args) -> Run {
    let mut run = Run::new(args);
    if run.args.trace {
        trace::set_thread_name(layers::MAIN_THREAD);
    }
    trace::disable();
    match run.cold_starts() {
        Ok((mut drivers, seed, cold)) => {
            if run.args.trace {
                run.traced_loop(&mut drivers);
            } else {
                run.timed_loop(&mut drivers);
            }
            run.replay(&mut drivers, seed, &cold);
        }
        Err(e) => run.fatal = Some(e),
    }
    run
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amcbench: {e}");
            eprintln!(
                "usage: amcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let (name, seed, trace_on) = (args.workload.name(), args.seed, args.trace);
    let run = rayon::with_threads(THREADS, || {
        let stamp = stamp::host_stamp(name, seed, trace_on);
        (run(args), stamp)
    });
    let (run, host) = run;

    let mut lines: Vec<String> = host.iter().map(|(k, v)| format!("{k}: {v}")).collect();
    let metrics = run.metrics();
    let timed = if trace_on {
        "untraced+traced pairs"
    } else {
        "timed scenes"
    };
    lines.push(format!(
        "{timed}: {}, cold starts: {}, attempted: {}, failed: {}",
        run.scene_walls.len(),
        run.setup_s.len(),
        run.tally.attempted,
        run.failed()
    ));
    for (label, xs) in [("scene wall", &run.scene_walls), ("setup", &run.setup_s)] {
        if !xs.is_empty() {
            let [q1, q2, q3] = stamp::quartiles(xs);
            lines.push(format!(
                "{label} s: q1 {q1:.4} median {q2:.4} q3 {q3:.4} (n = {})",
                xs.len()
            ));
        }
    }
    if let Some(fp) = &run.fingerprint {
        lines.push(format!("fingerprint: {fp:?}"));
    }
    lines.push(format!(
        "near-tie picks accepted: {} pixels over {} scenes",
        run.near_ties, run.tally.attempted
    ));
    lines.push(match &run.self_test {
        Ok(()) => "checker self-test: a flipped MEI bit and a swapped label are both caught".into(),
        Err(e) => format!("checker self-test FAILED: {e}"),
    });
    lines.extend(run.tally.failures.iter().map(|f| format!("failure: {f}")));
    if let Some(e) = &run.fatal {
        lines.push(format!("no measurement: {e}"));
    }
    lines.extend(run.report.iter().cloned());
    lines.extend(
        metrics
            .iter()
            .map(|(n, v, u)| format!("{n:<28} {v:>16.6} {u}")),
    );
    for line in &lines {
        println!("# {line}");
    }
    if trace_on {
        let path = out_path(run.args.workload, seed, "report.txt");
        if let Err(e) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("amcbench: cannot write {}: {e}", path.display());
        }
    }

    let mut fields = Vec::with_capacity(metrics.len());
    for (n, v, u) in &metrics {
        if v.is_finite() {
            fields.push(format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"));
        } else {
            eprintln!("amcbench: metric {n} is not a finite number");
        }
    }
    let failed = run.failed();
    let correct = failed == 0
        && run.fatal.is_none()
        && run.self_test.is_ok()
        && fields.len() == metrics.len();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.tally.attempted.max(1),
        fields.join(", ")
    );
}
