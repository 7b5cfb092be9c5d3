//! The repository benchmark: three workloads through the public APIs of
//! `mptcp-topology`, `mptcp-workload`, `mptcp-netsim`, `mptcp-cc` and
//! `mptcp-proto`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload dc_bulk|dc_churn|proto_transfer --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload for `--seconds`
//! seconds and reports the end-to-end metrics; a traced run (`--trace 1`)
//! alternates untraced and traced repetitions and reports the per-layer
//! metrics. The last stdout line is one JSON object; the exit code is 1 if
//! any correctness check failed. See README.md for the workloads, the
//! metrics and the layer-to-metric map.

mod dc_bulk;
mod dc_churn;
mod micro;
mod netlayers;
mod proto_transfer;
mod rep;
mod report;
mod trace;

use rep::Rep;
use report::{median, print_table, quantile, ratio, Metric};
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics with their units, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("delivered_mb_per_s", "MB/s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput_mbps", "Mb/s"),
    ("fct_p50_ms", "ms"),
    ("fct_p99_ms", "ms"),
];

/// Per-layer metrics every workload's traced run measures, as listed in
/// `BENCHMARK.json`. The traced run prints the full layer table, including
/// the metrics that exist on only some workloads, above the result line.
const PER_LAYER: [(&str, &str); 7] = [
    ("workload.generate_s", "s"),
    ("cc.ns_per_ack", "ns"),
    ("link.drop_share", "share"),
    ("tcp.retransmit_share", "share"),
    ("tcp.timeouts", "count"),
    ("mptcp.reinjections", "count"),
    ("trace.overhead_share", "share"),
];

/// Untraced repetitions per run, at least.
const MIN_REPS: usize = 3;

/// Set-up alone is repeated before the repetitions, back to back, until
/// there are [`SETUP_SAMPLES`] samples or [`SETUP_SECONDS`] have passed
/// (and at least [`MIN_REPS`] times); `setup_s` is their median.
const SETUP_SAMPLES: usize = 1001;
const SETUP_SECONDS: f64 = 1.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DcBulk,
    DcChurn,
    ProtoTransfer,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "dc_bulk" => Some(Self::DcBulk),
            "dc_churn" => Some(Self::DcChurn),
            "proto_transfer" => Some(Self::ProtoTransfer),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::DcBulk => "dc_bulk",
            Self::DcChurn => "dc_churn",
            Self::ProtoTransfer => "proto_transfer",
        }
    }
}

/// Workload sizes: `standard` for the benchmark, `tiny` for its tests.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    bulk: dc_bulk::Config,
    churn: dc_churn::Config,
    proto: proto_transfer::Config,
}

impl Sizes {
    fn standard() -> Self {
        Self {
            bulk: dc_bulk::Config::standard(),
            churn: dc_churn::Config::standard(),
            proto: proto_transfer::Config::standard(),
        }
    }
}

/// Worker threads of the untraced `dc_churn` run. At `jobs = 2` on a
/// shared 2-core host the same world ran at 20 to 45 MB/s from one
/// repetition to the next, wider than any admissible bound; the traced run
/// measures `jobs = N` beside `jobs = 1` (see README.md).
const UNTRACED_CHURN_JOBS: usize = 1;

/// `dc_churn` worker threads of the traced run's parallel leg: the host's
/// parallelism capped at the shard count.
fn churn_jobs(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(shards)
}

/// Wall time of one set-up alone, s.
fn one_setup(w: Workload, sizes: &Sizes, seed: u64) -> f64 {
    match w {
        Workload::DcBulk => dc_bulk::setup_s(&sizes.bulk, seed),
        Workload::DcChurn => dc_churn::setup_s(&sizes.churn, seed),
        Workload::ProtoTransfer => proto_transfer::setup_s(&sizes.proto, seed),
    }
}

fn one_rep(w: Workload, sizes: &Sizes, seed: u64, tr: &mut Tracer) -> Rep {
    match w {
        Workload::DcBulk => dc_bulk::rep(&sizes.bulk, seed, tr),
        Workload::DcChurn => dc_churn::rep(&sizes.churn, seed, UNTRACED_CHURN_JOBS, false, tr),
        Workload::ProtoTransfer => proto_transfer::rep(&sizes.proto, seed, tr),
    }
}

/// What a run prints: correctness, operation counts and metrics.
#[derive(Debug)]
struct Outcome {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Every repetition must reproduce the first one's simulated outcome.
fn check_same_history(reps: &[(&str, &Rep)], violations: &mut Vec<String>) {
    let Some((first_label, first)) = reps.first() else {
        return;
    };
    for (label, r) in &reps[1..] {
        if r.sim != first.sim {
            violations.push(format!(
                "{label} diverged from {first_label}: digest {:#018x} vs {:#018x}",
                r.sim.digest, first.sim.digest
            ));
        }
    }
    for (_, r) in reps {
        violations.extend(r.violations.iter().cloned());
    }
}

/// Untraced run: repeat until `seconds` have passed (at least
/// [`MIN_REPS`] times) and report the end-to-end metrics.
fn untraced(w: Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Outcome {
    let mut setup = Vec::new();
    let setup_started = Instant::now();
    while setup.len() < MIN_REPS
        || (setup.len() < SETUP_SAMPLES && setup_started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        setup.push(one_setup(w, sizes, seed));
    }
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(one_rep(w, sizes, seed, &mut Tracer::off()));
    }
    let mut violations = Vec::new();
    let labelled: Vec<(&str, &Rep)> = reps.iter().map(|r| ("repetition", r)).collect();
    check_same_history(&labelled, &mut violations);
    let first = &reps[0];
    let fct = &first.sim.fct_ms;
    let rate: Vec<f64> = reps.iter().map(Rep::delivered_mb_per_s).collect();
    let values = [
        median(&setup),
        median(&rate),
        report::peak_rss_mb(),
        first.sim.goodput_mbps,
        quantile(fct, 0.5),
        quantile(fct, 0.99),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();
    let mut context = vec![
        Metric::new(
            "failed_share",
            ratio(first.sim.failed as f64, first.sim.attempted as f64),
            "share",
        ),
        Metric::new("operations", first.sim.attempted as f64, "count"),
        Metric::new("fct.samples", fct.len() as f64, "count"),
        Metric::new("fct.samples_beyond_p99", beyond(fct, 0.99) as f64, "count"),
        Metric::new("fct.max_ms", quantile(fct, 1.0), "ms"),
        Metric::new("repetitions", reps.len() as f64, "count"),
        Metric::new("setup.samples", setup.len() as f64, "count"),
        Metric::new(
            "run_s.median",
            median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()),
            "s",
        ),
    ];
    if w == Workload::DcChurn {
        context.push(Metric::new("jobs", UNTRACED_CHURN_JOBS as f64, "count"));
    }
    print_table(
        &format!(
            "{} end-to-end (digest {:#018x})",
            w.name(),
            first.sim.digest
        ),
        &metrics,
    );
    print_table("context", &context);
    let rates: Vec<String> = rate.iter().map(|r| format!("{r:.1}")).collect();
    println!("  delivered MB/s by repetition: {}", rates.join(" "));
    Outcome {
        violations,
        attempted: first.sim.attempted,
        failed: first.sim.failed,
        metrics,
    }
}

/// Samples strictly above the `q`-quantile.
fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Layer metrics of several traced repetitions, merged by median.
fn merge_layers(reps: &[&Rep]) -> Vec<Metric> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .layers
        .iter()
        .map(|m| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layers.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// Traced run: untraced and traced repetitions of the same world, the
/// traced ones recording spans; reports the per-layer metrics.
fn traced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    spans_out: Option<&std::path::Path>,
) -> Outcome {
    let started = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Tracer)> = Vec::new();
    let mut layers;
    let mut other_jobs: Vec<Rep> = Vec::new();
    if w == Workload::DcChurn {
        // One world at jobs = 1 (as in the untraced run) and jobs = N,
        // untraced and then sliced and traced; all four must share one
        // history. Layer metrics and tracing overhead come from jobs = 1.
        let cfg = &sizes.churn;
        let n = churn_jobs(cfg.shards);
        let plain_1 = dc_churn::rep(cfg, seed, 1, false, &mut Tracer::off());
        let plain_n = dc_churn::rep(cfg, seed, n, false, &mut Tracer::off());
        let mut tr_1 = Tracer::on();
        let traced_1 = dc_churn::rep(cfg, seed, 1, true, &mut tr_1);
        let mut tr_n = Tracer::on();
        let traced_n = dc_churn::rep(cfg, seed, n, true, &mut tr_n);
        layers = traced_1.layers.clone();
        layers.push(Metric::new("shard.jobs", n as f64, "count"));
        for (label, r) in [("jobs_1", &traced_1), ("jobs_n", &traced_n)] {
            layers.push(Metric::new(
                format!("shard.idle_wall_per_sim_s.{label}"),
                ratio(r.idle_wall_s, r.idle_sim_s),
                "s/s",
            ));
            layers.push(Metric::new(
                format!("shard.idle_sim_s.{label}"),
                r.idle_sim_s,
                "s",
            ));
        }
        layers.push(Metric::new(
            "shard.speedup",
            ratio(plain_1.run_s, plain_n.run_s),
            "x",
        ));
        layers.push(Metric::new("shard.run_s.jobs_1", plain_1.run_s, "s"));
        layers.push(Metric::new("shard.run_s.jobs_n", plain_n.run_s, "s"));
        layers.push(Metric::new(
            "trace.overhead_share",
            ratio(traced_1.run_s - plain_1.run_s, plain_1.run_s),
            "share",
        ));
        plain.push(plain_1);
        other_jobs.push(plain_n);
        traced.push((traced_1, tr_1));
        traced.push((traced_n, tr_n));
    } else {
        while traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
            plain.push(one_rep(w, sizes, seed, &mut Tracer::off()));
            let mut tr = Tracer::on();
            let r = one_rep(w, sizes, seed, &mut tr);
            traced.push((r, tr));
        }
        let traced_reps: Vec<&Rep> = traced.iter().map(|(r, _)| r).collect();
        layers = merge_layers(&traced_reps);
        let plain_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let traced_s = median(&traced_reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
        layers.push(Metric::new(
            "trace.overhead_share",
            ratio(traced_s - plain_s, plain_s),
            "share",
        ));
    }
    layers.push(Metric::new(
        "trace.untraced_run_s",
        median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>()),
        "s",
    ));

    let mut violations = Vec::new();
    let mut all: Vec<(&str, &Rep)> = plain.iter().map(|r| ("untraced repetition", r)).collect();
    all.extend(other_jobs.iter().map(|r| ("untraced jobs=N repetition", r)));
    all.extend(traced.iter().map(|(r, _)| ("traced repetition", r)));
    check_same_history(&all, &mut violations);

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match layers.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => metrics.push(m.clone()),
            _ => violations.push(format!("layer metric {name} [{unit}] was not measured")),
        }
    }
    print_table(
        &format!("{} layers (digest {:#018x})", w.name(), plain[0].sim.digest),
        &layers,
    );
    println!("spans of the first traced repetition: name, calls, busy s, self s");
    for (name, calls, busy, own) in traced[0].1.summary() {
        println!("  {name:<36} {calls:>10} {busy:>12.6} {own:>12.6}");
    }
    if let Some(path) = spans_out {
        let tracers: Vec<&Tracer> = traced.iter().map(|(_, t)| t).collect();
        match write_spans(path, &tracers) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let first = &plain[0].sim;
    Outcome {
        violations,
        attempted: first.attempted,
        failed: first.failed,
        metrics,
    }
}

fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rep, t) in tracers.iter().enumerate() {
        t.write_jsonl(&mut out, rep)?;
    }
    out.flush()
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload dc_bulk|dc_churn|proto_transfer is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let sizes = Sizes::standard();
    let outcome = if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_spans/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        traced(args.workload, &sizes, args.seed, args.seconds, Some(&path))
    } else {
        untraced(args.workload, &sizes, args.seed, args.seconds)
    };
    for v in &outcome.violations {
        eprintln!("correctness check failed: {v}");
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_netsim::SimTime;

    const ALL: [Workload; 3] = [Workload::DcBulk, Workload::DcChurn, Workload::ProtoTransfer];

    fn tiny() -> Sizes {
        Sizes {
            bulk: dc_bulk::Config::tiny(),
            churn: dc_churn::Config::tiny(),
            proto: proto_transfer::Config::tiny(),
        }
    }

    /// `(name, unit)` of every metric in the `key` list of BENCHMARK.json.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let list = &json[start..start + json[start..].find(']').expect("list closes")];
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            rest[open..open + rest[open..].find('"').expect("string closes")].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runner_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        for w in ALL {
            let plain = untraced(w, &tiny(), 3, 0.0);
            assert_eq!(plain.violations, Vec::<String>::new(), "{w:?}");
            assert_eq!(plain.failed, 0, "{w:?}: no operation fails at full horizon");
            assert_eq!(names(&plain.metrics), owned(&END_TO_END), "{w:?}");
            assert!(
                plain.metrics.iter().all(|m| m.value > 0.0),
                "{w:?}: {:?}",
                plain.metrics
            );
            let traced = traced(w, &tiny(), 3, 0.0, None);
            assert_eq!(traced.violations, Vec::<String>::new(), "{w:?}");
            assert_eq!(names(&traced.metrics), owned(&PER_LAYER), "{w:?}");
        }
    }

    #[test]
    fn traced_and_untraced_repetitions_simulate_the_same_history() {
        for w in ALL {
            let plain = one_rep(w, &tiny(), 5, &mut Tracer::off());
            let mut tr = Tracer::on();
            let traced = one_rep(w, &tiny(), 5, &mut tr);
            assert_eq!(plain.sim, traced.sim, "{w:?}");
            assert!(!plain.sim.fct_ms.is_empty(), "{w:?}");
            assert!(!tr.spans().is_empty() && plain.layers.is_empty() && !traced.layers.is_empty());
        }
    }

    #[test]
    fn churn_history_does_not_depend_on_worker_threads() {
        let cfg = dc_churn::Config::tiny();
        let one = dc_churn::rep(&cfg, 9, 1, false, &mut Tracer::off());
        let two = dc_churn::rep(&cfg, 9, 2, true, &mut Tracer::off());
        assert_eq!(one.sim, two.sim);
    }

    #[test]
    fn a_truncated_horizon_counts_as_failures() {
        let mut sizes = tiny();
        sizes.churn.horizon = SimTime::from_millis(5);
        let churn = one_rep(Workload::DcChurn, &sizes, 3, &mut Tracer::off());
        assert!(
            churn.sim.failed > 0,
            "flows cut off by the horizon must fail"
        );
        assert_eq!(
            churn.sim.failed + churn.sim.fct_ms.len() as u64,
            churn.sim.attempted
        );

        sizes.proto.max_ticks = 10;
        let proto = one_rep(Workload::ProtoTransfer, &sizes, 3, &mut Tracer::off());
        assert_eq!(
            proto.sim.failed, proto.sim.attempted,
            "no transfer completes in 1 ms"
        );
        assert!(
            proto.violations.is_empty(),
            "an unfinished transfer is a failure, not corruption"
        );
    }

    #[test]
    fn arguments_parse_and_reject_unknown_values() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload dc_churn --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DcChurn, 7, 12.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload dc_bulk --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
