//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload, prints every metric by name with its unit, writes
//! the full record (and, when traced, the spans) under `.bench_out/`, and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use perfbench::report::{self, json_str, END_TO_END, PER_LAYER};
use perfbench::{Config, Outcome, WORKLOADS};
use std::fmt::Write as _;
use std::path::Path;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Config, String> {
    let mut cfg =
        Config { workload: String::new(), seed: 1, seconds: 20.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value("--workload")?,
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

/// The full record: run metadata, every metric, record-only details and
/// any problem found.
fn record_json(cfg: &Config, out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let h = &out.host;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"lumen-perfbench/v1\",");
    let _ = writeln!(s, "  \"workload\": {},", json_str(&cfg.workload));
    let _ = writeln!(s, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(s, "  \"seconds\": {},", cfg.seconds);
    let _ = writeln!(s, "  \"trace\": {},", cfg.trace);
    let _ = writeln!(s, "  \"smoke\": {},", cfg.smoke);
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}},",
        h.nproc,
        json_str(&h.cpu_model),
        json_str(&h.rustc),
        json_str(&h.commit)
    );
    let _ = writeln!(
        s,
        "  \"load\": {{\"threads\": {}, \"connections\": {}}},",
        out.load_threads, out.load_connections
    );
    let _ = writeln!(s, "  \"attempted\": {},", out.ledger.attempted);
    let _ = writeln!(s, "  \"failed\": {},", out.ledger.failed);
    let problems: Vec<String> = out.ledger.problems.iter().map(|p| json_str(p)).collect();
    let _ = writeln!(s, "  \"problems\": [{}],", problems.join(", "));
    let _ = writeln!(s, "  \"metrics\": {},", report::json_metrics(metrics));
    let details: Vec<String> =
        out.details.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let _ = writeln!(s, "  \"details\": {{{}}}", details.join(", "));
    s.push('}');
    s
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            std::process::exit(1);
        }
    };
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = match outcome.metrics.select(table) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(1);
        }
    };

    let h = &outcome.host;
    println!(
        "perfbench {} seed {} trace {} | nproc {} | {} | {} | commit {} | load {} threads, {} connections",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        h.nproc,
        h.cpu_model,
        h.rustc,
        h.commit,
        outcome.load_threads,
        outcome.load_connections
    );
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for (name, value) in &outcome.details {
        println!("  {name} = {value}");
    }
    for p in &outcome.ledger.problems {
        println!("FAILED: {p}");
    }

    let dir = Path::new(".bench_out");
    let stem = format!("{}-seed{}-trace{}", cfg.workload, cfg.seed, u8::from(cfg.trace));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| {
            std::fs::write(dir.join(format!("{stem}.json")), record_json(&cfg, &outcome, &metrics))
        })
        .and_then(|_| match &outcome.tracer {
            Some(t) => t.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the record under {}: {e}", dir.display());
        std::process::exit(1);
    }
    println!("{}", report::result_line(&outcome.ledger, &metrics));
}
