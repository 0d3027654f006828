//! One benchmark for Athena's two evaluated paths — the Cbench write path
//! and the live detection stack — plus the NB training path and bare
//! dataplane forwarding.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cbench --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run measures one workload in its own process. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs traced and untraced reps
//! alternately and prints the per-layer breakdown. Human-readable lines
//! come first; the last line of standard output is the JSON result. A
//! failed output check prints `"correct": false` and exits with 1.

#[cfg(test)]
mod fidelity;
mod layers;
mod probe;
mod stats;
mod workloads;

use stats::{error_rate, median};
use workloads::{Cfg, Outcome};

fn usage() -> String {
    format!(
        "usage: athena-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<(String, Cfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))
    };
    let workload = value("--workload")?.to_owned();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}\n{}", usage()))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err(format!("--seconds must be positive\n{}", usage()));
    }
    let traced = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1\n{}", usage())),
    };
    Ok((
        workload,
        Cfg {
            seed: number("--seed")?,
            seconds: seconds as f64,
            traced,
        },
    ))
}

/// The source this binary was built from: the git commit when run in a
/// repository, else a digest of the workspace sources it was run beside.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| format!("tree-{:016x}", source_digest()))
}

/// FNV-1a over the paths and bytes of every file under `crates/`.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One metric of the JSON result.
fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn report(workload: &str, cfg: &Cfg, o: &Outcome) -> Vec<String> {
    let failed = o.failures.total();
    println!(
        "{workload}: {} untraced and {} traced reps, {} set-ups",
        o.work_s.len(),
        o.traced_s.len(),
        o.setup_s.len()
    );
    let ms = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{:.1}", x * 1e3))
            .collect::<Vec<_>>()
    };
    println!("  untraced reps (ms): {}", ms(&o.work_s).join(" "));
    println!("  traced reps (ms):   {}", ms(&o.traced_s).join(" "));
    let lines: Vec<workloads::Named> = if cfg.traced {
        layers::report(&o.samples, &o.traced_s, &o.work_s)
    } else {
        vec![
            ("setup_s", median(&o.setup_s).unwrap_or(0.0), "s"),
            ("us_per_op", o.us_per_op(), "us"),
            ("peak_rss_mb", o.peak_rss_mb(), "MB"),
        ]
    };
    for (name, v, unit) in &lines {
        println!("  {name:<34} {v:>16.6} {unit}");
    }
    if !cfg.traced {
        println!("  workload figures (not gated):");
        let named = o.named.iter().copied().chain([
            ("work_s", median(&o.work_s).unwrap_or(0.0), "s"),
            ("error_rate", error_rate(failed, o.attempted), "fraction"),
        ]);
        for (name, v, unit) in named {
            println!("  {name:<34} {v:>16.6} {unit}");
        }
        println!("  failures: {:?} of {} attempted", o.failures, o.attempted);
    }
    lines
        .iter()
        .map(|(name, v, unit)| metric(name, *v, unit))
        .collect()
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Pin the pool width to the host's cores, whatever the environment
    // says, so every run of a machine uses the same width.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("ATHENA_THREADS", nproc.to_string());
    println!(
        "provenance: commit={} nproc={nproc} profile={} ATHENA_THREADS={} seed={} workload={workload} seconds={} trace={}",
        commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        athena_parallel::threads(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
    );
    let outcome = match workload.as_str() {
        "cbench" => workloads::cbench::run(&cfg),
        "ddos_live" => workloads::ddos_live::run(&cfg),
        "nb_train" => workloads::nb_train::run(&cfg),
        _ => workloads::fattree_fwd::run(&cfg),
    };
    match outcome {
        Ok(o) => {
            let metrics = report(&workload, &cfg, &o);
            println!(
                "{}",
                result_line(true, o.attempted, o.failures.total(), &metrics)
            );
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    }
}
