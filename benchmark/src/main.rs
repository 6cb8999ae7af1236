//! The wall-clock benchmark of the SAGE reproduction.
//!
//! ```text
//! sage-benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! sage-benchmark [--seed N] [--seconds S]                        every workload, both passes
//! sage-benchmark --selfcheck [--seed N] [--seconds S]            end-to-end pass twice, compared
//! sage-benchmark fleet-daemon CPU                                (internal) one fleet worker
//! sage-benchmark rss-probe W N                                   (internal) peak RSS of one batch in a fresh process
//! ```
//!
//! A single pass prints one `metric` line per metric and, last, the JSON
//! object BENCHMARK.json's contract asks for. See `benchmark/README.md`.

mod alloc;
mod cells;
mod estimator;
mod host;
mod oracle;
mod run;
mod trace;
mod workloads;

use run::{Args, Metric, Outcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Spec, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one pass measures when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 6.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Shortest decimal that round-trips: every digit measured, none invented.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_outcome(spec: &Spec, cli: &Cli, outcome: &Outcome) {
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(
        out,
        "# workload {} seed {} seconds {} trace {}",
        spec.name,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "# {note}");
    }
    for m in &outcome.metrics {
        let _ = writeln!(
            out,
            "metric {} {} {} q1 {} q3 {} n {}",
            m.name,
            json_number(m.value),
            m.unit,
            json_number(m.q1),
            json_number(m.q3),
            m.n
        );
    }
    let _ = writeln!(
        out,
        "result correct {} attempted {} failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn single_pass(cli: &Cli, workload: &str) -> Result<(), String> {
    let spec = Spec::by_name(workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{workload}` (one of: {})",
            names.join(", ")
        )
    })?;
    let outcome = run::run(&Args {
        spec,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    })?;
    if !cli.trace {
        // End-to-end metrics gate later changes: a zero or non-number is a
        // broken measurement, not a result.
        if let Some(bad) = outcome
            .metrics
            .iter()
            .find(|m| !(m.value.is_finite() && m.value > 0.0))
        {
            return Err(format!("metric {} measured {}", bad.name, bad.value));
        }
    }
    print_outcome(spec, cli, &outcome);
    Ok(())
}

/// What a child pass printed, parsed back from its `metric` / `result` lines.
#[derive(Default)]
struct PassReport {
    metrics: Vec<Metric>,
    /// The pass's fastest calibration, ms (`host.calib_ms`).
    calib_ms: f64,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Runs one pass in a child of this binary, echoing its output.
fn child_pass(cli: &Cli, spec: &Spec, trace: bool) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning pass: {e}"))?;
    let mut report = PassReport::default();
    let stdout = child.stdout.take().ok_or("child without stdout")?;
    let units: BTreeMap<&str, (&'static str, &'static str)> = run::END_TO_END
        .iter()
        .chain(run::PER_LAYER.iter())
        .map(|&(n, u)| (n, (n, u)))
        .collect();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading pass output: {e}"))?;
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, _unit, "q1", q1, "q3", q3, "n", n] => {
                if let Some(&(name, unit)) = units.get(name) {
                    report.metrics.push(Metric {
                        name,
                        unit,
                        value: value.parse().unwrap_or(0.0),
                        q1: q1.parse().unwrap_or(0.0),
                        q3: q3.parse().unwrap_or(0.0),
                        n: n.parse().unwrap_or(0),
                    });
                }
            }
            ["result", "correct", c, "attempted", a, "failed", fl] => {
                report.correct = *c == "true";
                report.attempted = a.parse().unwrap_or(0);
                report.failed = fl.parse().unwrap_or(0);
            }
            _ if line.starts_with('#') => {
                if let Some(at) = f.iter().position(|w| *w == "host.calib_ms") {
                    report.calib_ms = f.get(at + 1).and_then(|v| v.parse().ok()).unwrap_or(0.0);
                }
                println!("  {line}");
            }
            _ => {}
        }
    }
    let status = child.wait().map_err(|e| format!("waiting for pass: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}) exited with {status}",
            spec.name,
            u8::from(trace)
        ));
    }
    Ok(report)
}

fn print_table(report: &PassReport) {
    for m in &report.metrics {
        println!(
            "  {:<34} {:>14.4} {:<8} [q1 {:.4}, q3 {:.4}, n {}]",
            m.name, m.value, m.unit, m.q1, m.q3, m.n
        );
    }
    println!(
        "  failed_share {} / {} (correct: {})",
        report.failed, report.attempted, report.correct
    );
}

/// Every workload, both passes; writes `out/results.json`.
fn all_workloads(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut json = String::from("{\n");
    for (i, spec) in WORKLOADS.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!("\"{}\": {{", spec.name));
        for (k, trace) in [false, true].into_iter().enumerate() {
            println!(
                "== {} — {} pass (seed {}, {} s)",
                spec.name,
                if trace { "per-layer" } else { "end-to-end" },
                cli.seed,
                cli.seconds
            );
            let report = child_pass(cli, spec, trace)?;
            print_table(&report);
            ok &= report.correct && report.failed == 0;
            if k > 0 {
                json.push_str(", ");
            }
            let rows: Vec<String> = report
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                        m.name,
                        json_number(m.value),
                        m.unit,
                        json_number(m.q1),
                        json_number(m.q3),
                        m.n
                    )
                })
                .collect();
            json.push_str(&format!(
                "\"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                if trace { "per_layer" } else { "end_to_end" },
                report.correct,
                report.attempted,
                report.failed,
                rows.join(", ")
            ));
        }
        json.push('}');
    }
    json.push_str("\n}\n");
    let dir = run::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(ok)
}

/// The `bound` BENCHMARK.json gives end-to-end metric `name`.
fn bound_of(benchmark_json: &str, name: &str) -> Option<f64> {
    let at = benchmark_json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &benchmark_json[at..];
    let rest = &rest[rest.find("\"bound\":")? + "\"bound\":".len()..];
    let end = rest.find(['}', ','])?;
    rest[..end].trim().parse().ok()
}

fn read_benchmark_json() -> Result<String, String> {
    ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or_else(|| "BENCHMARK.json not found in . or ..".to_string())
}

/// Relative worsening of `b` against `a` for a metric where `better` is
/// "higher" or "lower".
fn worsening(name: &str, a: f64, b: f64) -> f64 {
    let higher_is_better = name == "frames_per_s";
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The end-to-end pass twice on the same build; fails if any metric differs
/// between the two sets by more than its bound.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let bounds = read_benchmark_json()?;
    let mut ok = true;
    println!(
        "{:<26} {:<20} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for spec in &WORKLOADS {
        let first = child_pass(cli, spec, false)?;
        let second = child_pass(cli, spec, false)?;
        ok &= first.failed == 0 && second.failed == 0 && first.correct && second.correct;
        // Two sets are comparable only when the host was the same for both.
        let same_host = (first.calib_ms / second.calib_ms - 1.0).abs() <= 0.10;
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            let bound = bound_of(&bounds, a.name)
                .ok_or_else(|| format!("no bound for {} in BENCHMARK.json", a.name))?;
            // Either direction counts: the two sets are the same code.
            let diff = worsening(a.name, a.value, b.value)
                .abs()
                .max(worsening(a.name, b.value, a.value).abs());
            let verdict = match (diff > bound, same_host) {
                (false, _) => "ok",
                (true, true) => "FAIL",
                (true, false) => "host changed: not comparable",
            };
            ok &= diff <= bound || !same_host;
            println!(
                "{:<26} {:<20} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}% {verdict}",
                spec.name,
                a.name,
                a.value,
                b.value,
                diff * 100.0,
                bound * 100.0
            );
        }
        println!(
            "{:<26} {:<20} {:>12} {:>12}",
            spec.name,
            "failed/attempted",
            format!("{}/{}", first.failed, first.attempted),
            format!("{}/{}", second.failed, second.attempted)
        );
        println!(
            "{:<26} {:<20} {:>12.3} {:>12.3}",
            spec.name, "host.calib_ms", first.calib_ms, second.calib_ms
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fleet-daemon") {
        let cpu = args.get(1).and_then(|c| c.parse().ok()).unwrap_or(0);
        return match workloads::fleet_daemon(cpu) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fleet-daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("rss-probe") {
        let spec = args.get(1).and_then(|w| Spec::by_name(w));
        let seed = args.get(2).and_then(|s| s.parse().ok());
        return match spec
            .zip(seed)
            .map(|(spec, seed)| run::rss_probe(spec, seed))
        {
            Some(Ok(mib)) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("rss-probe: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("rss-probe needs a workload and a seed");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_cli(&args).and_then(|cli| match (&cli.workload, cli.selfcheck) {
        (Some(workload), false) => single_pass(&cli, workload).map(|()| true),
        (None, true) => selfcheck(&cli),
        (None, false) => all_workloads(&cli),
        (Some(_), true) => Err("--selfcheck runs every workload; drop --workload".into()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an oracle or self-check failed (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        assert_eq!(bound_of(text, "frames_per_s"), Some(0.1));
        assert_eq!(bound_of(text, "setup_s"), Some(0.25));
        assert_eq!(bound_of(text, "nope"), None);
    }

    /// BENCHMARK.json and the metric tables must name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn benchmark_json_lists_the_metric_tables() {
        let text = read_benchmark_json().expect("run the tests from benchmark/ or the repo root");
        for (section, table) in [
            ("\"end_to_end\"", &run::END_TO_END[..]),
            ("\"per_layer\"", &run::PER_LAYER[..]),
        ] {
            let mut rest = &text[text.find(section).expect("section")..];
            for (name, unit) in table {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                let at = rest
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{section} lacks {needle} (or out of order)"));
                rest = &rest[at + needle.len()..];
            }
        }
        for w in &WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn cli_parses_the_contract_arguments() {
        let args: Vec<String> = "--workload fft2d_64_tcp --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fft2d_64_tcp"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--bogus".into()]).is_err());
    }
}
