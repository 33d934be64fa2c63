//! Wall-clock benchmark of the GTS workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dna-knn --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. `--workload all` runs every workload in
//! turn, each in its own process. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A wrong answer makes the exit code 1.

mod batch;
mod gen;
mod heap;
mod host;
mod probe;
mod report;
mod rng;
mod sched;
mod serve;
mod stats;
mod trace;

use batch::{Ask, BatchWorkload};
use gen::{DnaModel, TlocModel};
use metric_space::{Item, ItemMetric};
use report::{Metrics, END_TO_END, PER_LAYER};
use rng::Rng;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

pub const WORKLOADS: &[&str] = &["dna-knn", "tloc-range"];

/// Points of `tloc-range`.
const TLOC_N: usize = 100_000;
/// Range radius of `tloc-range`, in degrees: a few hundred answers per query.
const TLOC_RADIUS: f64 = 0.474;

/// Seed of `tloc-range`'s city map (centres, spreads, popularity). The
/// map is the same in every run and `--seed` draws the points and queries
/// from it: with a map per seed, some maps cost 12% less per query than
/// others, a spread of the workload, not of the program.
const TLOC_MAP_SEED: u64 = 0x746c6f63;

/// Command-line settings of one run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Answers compared against brute force.
    pub checked: u64,
    pub mismatches: Vec<String>,
    pub notes: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

const USAGE: &str =
    "usage: perfbench --workload <dna-knn|tloc-range|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    if !(run.seconds > 0.0 && run.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(run)
}

/// The inputs of a workload, made from the seed alone.
fn make(name: &str, seed: u64, props: &mut Vec<String>) -> BatchWorkload {
    let mut rng = Rng::fork(seed, 0x64617461);
    let rho = |items: &[Item], metric, rng: &mut Rng| gen::intrinsic_dim(items, metric, 4000, rng);
    match name {
        "dna-knn" => {
            let model = DnaModel::new(4000, 108, &mut rng);
            let data: Vec<Item> = (0..4000).map(|_| model.sample(&mut rng)).collect();
            let queries = (0..32).map(|_| model.sample(&mut rng)).collect();
            props.push(format!(
                "dna-knn: 4000 reads of ~108 bases in 62 families, edit distance, kNN k=10, batches of 2, rho {:.1}",
                rho(&data, ItemMetric::Edit, &mut rng)
            ));
            BatchWorkload {
                data,
                metric: ItemMetric::Edit,
                queries,
                batch: 2,
                ask: Ask::Knn(10),
                checks: 8,
                serve_model: None,
            }
        }
        "tloc-range" => {
            let model = TlocModel::new(TLOC_N, &mut Rng::new(TLOC_MAP_SEED));
            let data: Vec<Item> = (0..TLOC_N).map(|_| model.sample(&mut rng)).collect();
            let queries = (0..4096)
                .map(|_| gen::perturb_point(&data[rng.below(data.len())], 0.01, &mut rng))
                .collect();
            props.push(format!(
                "tloc-range: {TLOC_N} 2-d points in 256 Zipf cities of equal density + 3% background, L2, range r={TLOC_RADIUS}, batches of 1024, rho {:.2}",
                rho(&data, ItemMetric::L2, &mut rng)
            ));
            BatchWorkload {
                data,
                metric: ItemMetric::L2,
                queries,
                batch: 1024,
                ask: Ask::Range(TLOC_RADIUS),
                checks: 32,
                serve_model: Some(model),
            }
        }
        _ => unreachable!("workload names are checked at parse"),
    }
}

fn run_one(run: &Run, root: &Path) -> ExitCode {
    let host = host::Host::probe(root);
    let mut props = Vec::new();
    let workload = make(&run.workload, run.seed, &mut props);
    let mut out = Outcome::default();
    let ticks = host::cpu_ticks();
    workload.run(run, &mut out);
    if let Some(steal) = host::steal_share(ticks, host::cpu_ticks()) {
        out.notes.push(format!(
            "the hypervisor took {:.1}% of this guest's CPU time during the run (steal); timings of runs with different steal are not comparable",
            100.0 * steal
        ));
    }
    let declared = if run.trace { PER_LAYER } else { END_TO_END };
    if !run.trace {
        out.metrics.set("heap_peak_mib", heap::peak_mib());
        out.notes.push(format!(
            "peak resident set (VmHWM) {:.1} MiB; not a metric, as the allocator's retention makes it vary by up to 15% between identical runs",
            host::rss_peak_mb()
        ));
    }
    let missing = out.metrics.missing(declared);
    assert!(missing.is_empty(), "metrics not measured: {missing:?}");
    let correct = out.checked > 0 && out.mismatches.is_empty();

    println!("host: {}", host.json());
    for p in &props {
        println!("workload: {p}");
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    println!(
        "checked {} answers against brute force: {}",
        out.checked,
        if correct { "all exact" } else { "MISMATCH" }
    );
    for m in out.mismatches.iter().take(10) {
        println!("  mismatch: {m}");
    }
    for l in out.metrics.lines() {
        println!("{l}");
    }
    let metrics = out.metrics.json(declared);
    if let Err(e) = save(root, run, &host, &props, &out, &metrics) {
        eprintln!("could not write the result file: {e}");
    }
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Result file (and, traced, the spans) under `perfbench/out/`.
fn save(
    root: &Path,
    run: &Run,
    host: &host::Host,
    props: &[String],
    out: &Outcome,
    metrics: &str,
) -> std::io::Result<()> {
    let dir = root.join("perfbench/out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    let notes: Vec<String> = props
        .iter()
        .chain(&out.notes)
        .map(|s| report::json_str(s))
        .collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {}, \"notes\": [{}], \"metrics\": {}}}\n",
        report::json_str(&run.workload),
        run.seed,
        run.seconds,
        host.json(),
        notes.join(", "),
        metrics
    );
    std::fs::write(dir.join(format!("{stem}.json")), body)?;
    if let Some(t) = &out.tracer {
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.spans.jsonl")),
        )?);
        t.write_jsonl(&mut f)?;
        f.flush()?;
    }
    Ok(())
}

/// Prefix every metric key of a result line's `metrics` object.
fn prefixed_metrics(line: &str, prefix: &str) -> Option<String> {
    let at = line.find("\"metrics\": {\"")? + "\"metrics\": {\"".len();
    let body = line[at..].trim_end().strip_suffix('}')?;
    Some(format!(
        "{{\"{prefix}.{}",
        body.replace("}, \"", &format!("}}, \"{prefix}."))
    ))
}

/// `--workload all`: each workload in a child process, then one line that
/// sums them, with metric names prefixed by the workload.
fn run_all(run: &Run) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0u64, 0u64, Vec::new());
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &run.seed.to_string(),
                "--seconds",
                &run.seconds.to_string(),
            ])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a workload run");
        let text = String::from_utf8_lossy(&child.stdout);
        print!("{text}");
        std::io::stderr().write_all(&child.stderr).ok();
        let last = text.lines().last().unwrap_or("");
        correct &= child.status.success() && last.contains("\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        match prefixed_metrics(last, w) {
            Some(m) if m.len() > 2 => metrics.push(m[1..m.len() - 1].to_string()),
            _ => correct = false,
        }
    }
    println!(
        "{}",
        report::result_line(
            correct,
            attempted,
            failed,
            &format!("{{{}}}", metrics.join(", "))
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = std::env::current_dir().expect("working directory");
    if run.workload == "all" {
        run_all(&run)
    } else {
        run_one(&run, &root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let r = parse(&args(
            "--workload tloc-range --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace),
            ("tloc-range", 7, 10.0, true)
        );
        assert!(parse(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&args("--workload all --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&args("--workload all --seed 1 --seconds 0 --trace 0")).is_err());
    }

    fn read(file: &str) -> String {
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file))
            .expect("file beside the manifest")
    }

    /// The string value of `"key": "..."` in a one-line JSON entry.
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let at = line.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
        &line[at..at + line[at..].find('"').expect("closing quote")]
    }

    /// The strings of `"key": [...]` in a one-line JSON entry.
    fn array<'a>(line: &'a str, key: &str) -> Vec<&'a str> {
        let at = line.find(&format!("\"{key}\": [")).expect("key") + key.len() + 5;
        let body = &line[at..at + line[at..].find(']').expect("closing bracket")];
        body.split(',')
            .map(|s| s.trim().trim_matches('"'))
            .filter(|s| !s.is_empty())
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_workloads_with_a_short_why() {
        let text = read("../BENCHMARK.json");
        let workloads: Vec<&str> = text.lines().filter(|l| l.contains("\"why\": ")).collect();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (line, name) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(line, "name"), *name);
            let why = field(line, "why");
            assert!(
                !why.is_empty() && why.chars().count() <= 200,
                "why of {name} too long"
            );
        }
    }

    #[test]
    fn interaction_map_covers_every_per_layer_metric_once() {
        let text = read("interactions.json");
        let declared: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut seen: Vec<&str> = Vec::new();
        for line in text.lines().filter(|l| l.contains("\"metric\": ")) {
            let metric = field(line, "metric");
            assert!(!seen.contains(&metric), "{metric} mapped twice");
            seen.push(metric);
            for m in array(line, "moves") {
                assert!(declared.contains(&m), "{metric} moves undeclared {m}");
            }
            let on = array(line, "on");
            assert!(
                !on.is_empty() && on.iter().all(|w| WORKLOADS.contains(w)),
                "{metric} on {on:?}"
            );
        }
        let mut want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn all_mode_prefixes_metric_names() {
        let line = report::result_line(
            true,
            3,
            0,
            "{\"qps\": {\"value\": 1.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.2, \"unit\": \"s\"}}",
        );
        assert_eq!(
            prefixed_metrics(&line, "dna-knn").expect("metrics object"),
            "{\"dna-knn.qps\": {\"value\": 1.5, \"unit\": \"1/s\"}, \"dna-knn.setup_s\": {\"value\": 0.2, \"unit\": \"s\"}}"
        );
    }
}
