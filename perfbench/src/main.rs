//! Host-time benchmark of the simt-msg workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, generated from the seed, for about `--seconds` of
//! measured passes; checks every output; and prints, as the last line of
//! standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics and a span file (`--trace 1`).
//! A human-readable table goes to standard error. Exits non-zero when a
//! correctness check fails. See `perfbench/README.md`.

mod domain;
mod probes;
mod report;
mod spans;
mod svc;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{unit_of, Outcome, END_TO_END, PER_LAYER};
use spans::Spans;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = [
    "svc-matrix-saturated",
    "svc-hash-tenants-faults",
    "domain-lossy-unexpected",
];

/// How much work one invocation does.
pub struct Budget {
    /// Seconds of measured passes (the loop stops at the first pass
    /// ending past this).
    pub measure_s: f64,
    /// Measured passes even when they take longer than `measure_s`.
    pub min_passes: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Repetitions of each layer probe (median reported).
    pub probe_reps: usize,
    /// Alternating `GlobalClock` / `ThreadPerShard` pass pairs.
    pub comparison_pairs: usize,
    /// Workload instances per run, each generated from its own seed
    /// derived from `--seed`; simulated metrics merge over all of them.
    pub variants: usize,
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of workload instance `i` of a run seeded with `seed`:
/// instance 0 uses the seed itself, the others seeds derived from it.
pub fn variant_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        mix(seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }
}

/// A draw in `[0, 1)` that is a pure function of `seed`.
pub fn unit_draw(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Set every not-yet-measured per-layer metric under one of `prefixes`
/// to 0: those layers do no work on the workload.
pub fn zero_layers(out: &mut Outcome, prefixes: &[&str]) {
    for &(name, _) in PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) && !out.metrics.contains_key(name) {
            out.set(name, 0.0);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = if args.trace {
        // A traced run splits its time: half alternating traced and
        // untraced passes, the rest scheduler comparison and probes.
        Budget {
            measure_s: 0.5 * args.seconds,
            min_passes: 4,
            setup_reps: 3,
            probe_reps: 3,
            comparison_pairs: 6,
            variants: 8,
        }
    } else {
        Budget {
            measure_s: args.seconds,
            min_passes: 3,
            setup_reps: 41,
            probe_reps: 1,
            comparison_pairs: 0,
            // The crash-driven latency tail of the faulty workload needs
            // many instances before its p99 settles.
            variants: if args.workload == "svc-hash-tenants-faults" {
                32
            } else {
                8
            },
        }
    };

    let mut spans = Spans::new(args.trace);
    let mut out = Outcome::default();
    spans.span("run", |spans| match args.workload.as_str() {
        "svc-matrix-saturated" => svc::run(
            svc::Kind::MatrixSaturated,
            args.seed,
            &budget,
            spans,
            &mut out,
        ),
        "svc-hash-tenants-faults" => svc::run(
            svc::Kind::HashTenantsFaults,
            args.seed,
            &budget,
            spans,
            &mut out,
        ),
        _ => domain::run(args.seed, &budget, spans, &mut out),
    });
    if args.trace {
        out.set(
            "bench.failed_frac",
            report::ratio(out.failed as f64, out.attempted as f64),
        );
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match out.finish(catalogue) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };

    eprintln!("workload {} seed {}", args.workload, args.seed);
    for (name, v) in &out.metrics {
        eprintln!("  {name:<32} {v:>16.6} {}", unit_of(name).unwrap_or(""));
    }
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("  {} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
        eprintln!("  self time by span:");
        for (name, s) in spans.self_times() {
            eprintln!("    {name:<44} {s:>10.4} s");
        }
    }
    for v in &out.violations {
        eprintln!("  CHECK FAILED: {v}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
