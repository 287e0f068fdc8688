//! `shader_lint` — standalone verifier/linter for fragment programs.
//!
//! Assembles one or more `.fp` source files (or stdin when no file is
//! given), runs the static verifier, and prints rustc-style diagnostics
//! with the offending source line. Exit status: 0 when clean, 1 when any
//! error (or, with `--deny-warnings`, any warning) is reported, 2 on
//! usage errors.
//!
//! By default programs are checked in *lint mode*: every sampler,
//! texture-coordinate set and constant is assumed bound. Passing any of
//! `--samplers`, `--texcoords`, `--consts` or `--outputs-read` switches
//! to pass mode with the given bindings, mirroring what `interp::lower`
//! enforces before a pass can be shaded.

use std::io::Read;
use std::process::ExitCode;

use gpu_sim::asm::assemble;
use gpu_sim::isa::{NUM_CONSTS, NUM_SAMPLERS, NUM_TEXCOORDS};
use gpu_sim::verify::{verify, Diagnostic, PassBindings, Severity};
use gpu_sim::GpuProfile;

const USAGE: &str = "\
usage: shader_lint [options] [file.fp ...]

Reads fragment-program assembly from the given files (or stdin when no
file is supplied), verifies each program, and prints diagnostics.

options:
  --profile <fx5950|7800gtx>   device profile to check limits against
                               (default: fx5950)
  --samplers <n>               number of bound texture samplers
  --texcoords <n>              number of bound texture-coordinate sets
  --consts <i,j,...>           comma-separated pass-bound constant indices
                               (use an empty string for none)
  --outputs-read <o0,o2,...>   outputs the pass reads back (default: o0)
  --deny-warnings              exit nonzero on warnings too
  --opt                        report what the optimizer eliminates
                               (per-pass counters, before/after counts)
  --emit                       print the optimized program's disassembly
  -h, --help                   show this help
";

struct Options {
    profile: GpuProfile,
    bindings: Option<PassBindings>,
    deny_warnings: bool,
    opt: bool,
    emit: bool,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut profile = GpuProfile::fx5950_ultra();
    let mut samplers: Option<usize> = None;
    let mut texcoords: Option<usize> = None;
    let mut consts: Option<Vec<u8>> = None;
    let mut outputs_read: Option<[bool; 4]> = None;
    let mut deny_warnings = false;
    let mut opt = false;
    let mut emit = false;
    let mut files = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--deny-warnings" => deny_warnings = true,
            "--opt" => opt = true,
            "--emit" => emit = true,
            "--profile" => {
                profile = match value("--profile")?.as_str() {
                    "fx5950" => GpuProfile::fx5950_ultra(),
                    "7800gtx" => GpuProfile::geforce_7800gtx(),
                    other => return Err(format!("unknown profile `{other}`")),
                };
            }
            "--samplers" => {
                let v = value("--samplers")?;
                samplers = Some(
                    v.parse()
                        .map_err(|_| format!("--samplers: `{v}` is not a count"))?,
                );
            }
            "--texcoords" => {
                let v = value("--texcoords")?;
                texcoords = Some(
                    v.parse()
                        .map_err(|_| format!("--texcoords: `{v}` is not a count"))?,
                );
            }
            "--consts" => {
                let v = value("--consts")?;
                let mut list = Vec::new();
                for part in v.split(',').filter(|p| !p.is_empty()) {
                    list.push(
                        part.trim()
                            .parse()
                            .map_err(|_| format!("--consts: `{part}` is not an index"))?,
                    );
                }
                consts = Some(list);
            }
            "--outputs-read" => {
                let v = value("--outputs-read")?;
                let mut mask = [false; 4];
                for part in v.split(',').filter(|p| !p.is_empty()) {
                    let p = part.trim().to_ascii_lowercase();
                    let idx: usize = p
                        .strip_prefix('o')
                        .unwrap_or(&p)
                        .parse()
                        .map_err(|_| format!("--outputs-read: `{part}` is not an output"))?;
                    if idx >= 4 {
                        return Err(format!("--outputs-read: O{idx} out of range"));
                    }
                    mask[idx] = true;
                }
                outputs_read = Some(mask);
            }
            other if other.starts_with('-') && other.len() > 1 => {
                return Err(format!("unknown option `{other}`"));
            }
            path => files.push(path.to_string()),
        }
    }

    // Any binding flag switches from lint mode to pass mode.
    let bindings = if samplers.is_some()
        || texcoords.is_some()
        || consts.is_some()
        || outputs_read.is_some()
    {
        Some(PassBindings {
            samplers: samplers.unwrap_or(NUM_SAMPLERS),
            texcoord_sets: texcoords.unwrap_or(NUM_TEXCOORDS),
            constants: consts.unwrap_or_else(|| (0..NUM_CONSTS as u8).collect()),
            outputs_read: outputs_read.unwrap_or([true, false, false, false]),
        })
    } else {
        None
    };

    Ok(Options {
        profile,
        bindings,
        deny_warnings,
        opt,
        emit,
        files,
    })
}

/// Prints one diagnostic in rustc style, quoting the source line.
fn print_diagnostic(name: &str, source: &str, d: &Diagnostic) {
    let severity = match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    println!("{severity}[{}]: {}", d.kind.name(), d.message);
    println!("  --> {name}:{}", d.line);
    if let Some(text) = source.lines().nth(d.line.saturating_sub(1)) {
        let gutter = d.line.to_string();
        println!("{:width$} |", "", width = gutter.len());
        println!("{gutter} | {}", text.trim_end());
        println!("{:width$} |", "", width = gutter.len());
    }
}

/// Lints one source file. Returns (errors, warnings) counted.
fn lint_source(name: &str, source: &str, opts: &Options) -> (usize, usize) {
    let program = match assemble(source) {
        Ok(p) => p,
        Err(e) => {
            println!("error[assembly]: {e}");
            println!("  --> {name}");
            return (1, 0);
        }
    };
    let diags = verify(&program, &opts.profile, opts.bindings.as_ref());
    let mut errors = 0;
    let mut warnings = 0;
    for d in &diags {
        print_diagnostic(name, source, d);
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
        }
    }
    // The optimizer reports ride along without influencing the exit code;
    // programs with errors are not optimized (lowering would reject them).
    if (opts.opt || opts.emit) && errors == 0 {
        let bindings = opts
            .bindings
            .clone()
            .unwrap_or_else(PassBindings::permissive);
        let (optimized, report) = gpu_sim::optimize(&program, &bindings);
        if opts.opt {
            println!("opt[{name}] {report}");
        }
        if opts.emit {
            print!("{optimized}");
        }
    }
    (errors, warnings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut errors = 0;
    let mut warnings = 0;
    if opts.files.is_empty() {
        let mut source = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut source) {
            eprintln!("error: reading stdin: {e}");
            return ExitCode::from(2);
        }
        let (e, w) = lint_source("<stdin>", &source, &opts);
        errors += e;
        warnings += w;
    } else {
        for path in &opts.files {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read `{path}`: {e}");
                    return ExitCode::from(2);
                }
            };
            let (e, w) = lint_source(path, &source, &opts);
            errors += e;
            warnings += w;
        }
    }

    if errors > 0 || warnings > 0 {
        println!(
            "shader_lint: {errors} error(s), {warnings} warning(s) on {} ({})",
            opts.profile.name,
            if opts.bindings.is_some() {
                "pass mode"
            } else {
                "lint mode"
            },
        );
    }
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
