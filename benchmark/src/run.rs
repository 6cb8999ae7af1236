//! One benchmark run: one workload, one seed, one pass.
//!
//! * `--trace 0` — the end-to-end pass: set-up (several times, median),
//!   then *calibrate -> timed rep -> calibrate* for `--seconds`, nothing
//!   wrapped, every rep verified, then the peak resident set of a few fresh
//!   processes. Reports the end-to-end metrics.
//! * `--trace 1` — the per-layer pass: untraced and traced reps alternate
//!   (same host conditions for both, so their ratio is the tracing
//!   overhead), then an untimed allocation-counting pass, then the
//!   workload's layer micro-cells. Reports the per-layer metrics.

use crate::cells;
use crate::estimator::{self, Adjusted, Gate, Summary};
use crate::oracle;
use crate::trace::{self, Kind};
use crate::workloads::{self, front_end, Fleet, Mode, Program, Rep, Spec, Tracing};
use crate::{alloc, host};
use sage::runtime::{prepare, Prepared, RuntimeOptions};
use std::time::Instant;

/// Times the set-up is repeated in the end-to-end pass (median reported).
const SETUPS: usize = 9;

/// Fresh processes the end-to-end pass reads `peak_rss_mib` from (median
/// reported).
const RSS_PROBES: usize = 7;

/// Spans are written to the trace file for frames below this id.
const TRACE_FRAMES: u32 = 8;

/// Reps of the untimed allocation-counting pass.
const ALLOC_REPS: usize = 3;

/// Share of `--seconds` each arm of the per-layer pass (untraced reps,
/// traced reps, and a workload's extra comparison) gets; the micro-cells
/// take what they need after the arms.
const ARM_SHARE: f64 = 0.3;

/// End-to-end metrics: (name, unit). BENCHMARK.json lists the same.
pub const END_TO_END: [(&str, &str); 4] = [
    ("frames_per_s", "1/s"),
    ("job_latency_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit). BENCHMARK.json lists the same. A metric
/// whose layer a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("trace.overhead_pct", "%"),
    ("signal.kernel_ms_per_frame", "ms"),
    ("signal.kernel_share", "share"),
    ("signal.source_ms_per_frame", "ms"),
    ("signal.source_share", "share"),
    ("signal.fft_rows_512_us", "us"),
    ("signal.transpose_512_us", "us"),
    ("signal.fft_mflops", "Mflop/s"),
    ("runtime.glue_ms_per_frame", "ms"),
    ("runtime.glue_share", "share"),
    ("runtime.pack_gib_s", "GiB/s"),
    ("runtime.unpack_gib_s", "GiB/s"),
    ("runtime.plan_us", "us"),
    ("runtime.prepare_us", "us"),
    ("fabric.send_ms_per_frame", "ms"),
    ("fabric.recv_wait_ms_per_frame", "ms"),
    ("fabric.msgs_per_frame", "count"),
    ("fabric.bytes_per_frame", "B"),
    ("fabric.rtt_us_64b", "us"),
    ("fabric.handoff_gib_s_1m", "GiB/s"),
    ("net.send_ms_per_frame", "ms"),
    ("net.recv_wait_ms_per_frame", "ms"),
    ("net.wire_bytes_per_frame", "B"),
    ("net.mesh_connect_ms", "ms"),
    ("net.rtt_us_64b", "us"),
    ("net.stream_gib_s_1m", "GiB/s"),
    ("net.wire_encode_gib_s", "GiB/s"),
    ("net.wire_decode_gib_s", "GiB/s"),
    ("net.tcp_over_local_ratio", "ratio"),
    ("fleet.jobs_per_s", "1/s"),
    ("fleet.job_latency_ms_p95", "ms"),
    ("fleet.queue_wait_ms_p50", "ms"),
    ("fleet.run_ms_p50", "ms"),
    ("fleet.admitted", "count"),
    ("fleet.rejected", "count"),
    ("core.parse_us", "us"),
    ("lint.lint_us", "us"),
    ("check.check_us", "us"),
    ("core.codegen_us", "us"),
    ("alloc.count_per_frame", "count"),
    ("alloc.bytes_per_frame", "B"),
    ("visualizer.probe_overhead_pct", "%"),
    ("apps.hand_ms_per_frame", "ms"),
    ("apps.glue_overhead_pct", "%"),
    ("host.calib_ms", "ms"),
    ("host.quiet_share", "share"),
    ("host.noisy", "count"),
    ("host.cpu_ms_per_frame", "ms"),
    ("host.samples", "count"),
];

/// Arguments of one run.
pub struct Args {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// The value (a median unless the metric is a count or a peak).
    pub value: f64,
    /// First quartile of the samples behind `value` (= `value` when single).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind `value`.
    pub n: usize,
}

/// What a run reports.
pub struct Outcome {
    /// Every output matched its oracle.
    pub correct: bool,
    /// Operations attempted (frame batches; fleet: jobs).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The pass's metrics, every one of its table.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (`host_noisy`, oracle failures, ...).
    pub notes: Vec<String>,
}

struct Metrics {
    table: &'static [(&'static str, &'static str)],
    rows: Vec<Metric>,
}

impl Metrics {
    fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            rows: table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    q1: 0.0,
                    q3: 0.0,
                    n: 0,
                })
                .collect(),
        }
    }

    fn set(&mut self, name: &str, s: Summary) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        let row = &mut self.rows[i];
        (row.value, row.q1, row.q3, row.n) = (s.median, s.q1, s.q3, s.n);
    }

    fn value(&mut self, name: &str, v: f64) {
        self.set(
            name,
            Summary {
                n: 1,
                q1: v,
                median: v,
                q3: v,
            },
        );
    }
}

/// A workload brought up and ready to run reps.
struct Bench {
    spec: Spec,
    program: Program,
    /// TCP: the program prepared once, as a worker does per job.
    prepared: Option<Prepared>,
    fleet: Option<Fleet>,
}

impl Bench {
    /// Everything before the first timed rep except the build: front end,
    /// `prepare`, fleet bring-up, and one warm-up rep through the
    /// workload's own path (which, over TCP, includes one mesh
    /// establishment).
    fn set_up(spec: &Spec, seed: u64) -> Result<(Bench, Rep), String> {
        let program = front_end(spec, seed)?;
        let prepared = match spec.mode {
            Mode::Tcp => Some(
                prepare(&program.program, &program.project.registry).map_err(|e| e.to_string())?,
            ),
            _ => None,
        };
        let fleet = match spec.mode {
            Mode::Fleet(_) => Some(Fleet::start(&program.cpus)?),
            _ => None,
        };
        let bench = Bench {
            spec: *spec,
            program,
            prepared,
            fleet,
        };
        let warm = bench.warm_up();
        Ok((bench, warm))
    }

    /// The warm-up: a full rep, except for the fleet, where it is the one
    /// job that makes first contact pay codegen and registry set-up on every
    /// worker.
    fn warm_up(&self) -> Rep {
        match (&self.fleet, self.spec.mode) {
            (Some(fleet), Mode::Fleet(iterations)) => fleet.run_rep(&self.program, 1, iterations),
            _ => self.rep(),
        }
    }

    fn rep(&self) -> Rep {
        let p = &self.program;
        match (self.spec.mode, &self.prepared, &self.fleet) {
            (Mode::Local | Mode::Stream(_), _, _) => {
                workloads::run_local(p, &p.options, self.spec.batch)
            }
            (Mode::Tcp, Some(prepared), _) => {
                workloads::run_tcp(p, prepared, self.spec.batch, None)
            }
            (Mode::Fleet(iterations), _, Some(fleet)) => {
                fleet.run_rep(p, self.spec.batch, iterations)
            }
            _ => unreachable!("set_up builds what the mode needs"),
        }
    }

    fn daemon_pids(&self) -> Vec<u32> {
        self.fleet.as_ref().map(Fleet::pids).unwrap_or_default()
    }

    /// CPU milliseconds consumed so far by this process and the daemons.
    fn cpu_ms(&self) -> f64 {
        host::cpu_ms(None)
            + self
                .daemon_pids()
                .into_iter()
                .map(|p| host::cpu_ms(Some(p)))
                .sum::<f64>()
    }

    fn peak_rss_mib(&self) -> f64 {
        host::peak_rss_mib(None)
            + self
                .daemon_pids()
                .into_iter()
                .map(|p| host::peak_rss_mib(Some(p)))
                .sum::<f64>()
    }

    fn tear_down(self) -> Result<(), String> {
        match self.fleet {
            Some(fleet) => fleet.stop(),
            None => Ok(()),
        }
    }
}

/// The oracle of one run: what every rep's sink stream must hash to.
struct Oracle {
    expected: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Oracle {
    /// Runs the program in-process, lock-step, for as many iterations as one
    /// run call of the workload; its checksum is what every rep (local,
    /// streaming, TCP) and every fleet job must reproduce, and its last
    /// frame must match the serial reference.
    fn establish(spec: &Spec, seed: u64) -> Result<Oracle, String> {
        let twin = spec.local_twin();
        let p = front_end(&twin, seed)?;
        let iterations = spec.iterations_per_call();
        let rep = workloads::run_local(&p, &RuntimeOptions::paper_faithful(), iterations);
        if let Some(e) = rep.error {
            return Err(format!("oracle run failed: {e}"));
        }
        let mut oracle = Oracle {
            expected: rep.checksums[0],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        };
        let frame = rep.last_frame.ok_or("oracle run left no sink frame")?;
        let err = oracle::reference_error(
            spec.reference(),
            spec.size,
            workloads::data_seed(seed),
            &frame,
        );
        // NaN (an empty or mis-sized frame) must fail too.
        if err.is_nan() || err >= oracle::REFERENCE_TOLERANCE {
            // Every rep will equal this run, so every rep is wrong.
            oracle.expected = !oracle.expected;
            oracle.notes.push(format!(
                "last frame misses the serial reference: rel err {err}"
            ));
        }
        Ok(oracle)
    }

    /// Counts one rep of `ops` operations; returns whether all were good.
    fn check(&mut self, rep: &Rep, ops: u64, what: &str) -> bool {
        self.attempted += ops;
        let good = rep
            .checksums
            .iter()
            .filter(|&&c| c == self.expected)
            .count() as u64;
        let good = if rep.error.is_some() && ops == 1 {
            0
        } else {
            good
        };
        let bad = ops.saturating_sub(good);
        self.failed += bad;
        if bad > 0 && self.notes.len() < 8 {
            self.notes.push(match &rep.error {
                Some(e) => format!("{what}: {bad} of {ops} failed: {e}"),
                None => format!("{what}: {bad} of {ops} sink checksums differ from the oracle"),
            });
        }
        bad == 0
    }
}

/// One measured series of reps, with their flanking calibrations.
#[derive(Default)]
struct Series {
    reps: Vec<Rep>,
    flanks: Vec<(f64, f64)>,
    /// CPU ms consumed by each rep (this process and daemons).
    cpu_ms: Vec<f64>,
}

impl Series {
    /// `f(rep)` of every rep, brought to the quiet-host calibration.
    fn adjusted(&self, floor: f64, f: impl Fn(&Rep) -> f64) -> Adjusted {
        let values: Vec<f64> = self.reps.iter().map(f).collect();
        estimator::adjust(&values, &self.flanks, floor)
    }

    /// Summary over all reps of `f(rep)`, calibration-adjusted.
    fn over(&self, floor: f64, f: impl Fn(&Rep) -> f64) -> Summary {
        estimator::summarize(&self.adjusted(floor, f).values)
    }

    /// Whether both flanks of rep `i` are quiet by what `gate` knows so far.
    fn is_quiet(&self, gate: &Gate, i: usize) -> bool {
        gate.is_quiet(self.flanks[i].0) && gate.is_quiet(self.flanks[i].1)
    }

    /// Number of quiet reps.
    fn quiet(&self, gate: &Gate) -> usize {
        (0..self.reps.len())
            .filter(|&i| self.is_quiet(gate, i))
            .count()
    }

    /// The first quiet rep (else the first rep).
    fn representative(&self, gate: &Gate) -> Option<usize> {
        (0..self.reps.len())
            .find(|&i| self.is_quiet(gate, i))
            .or(if self.reps.is_empty() { None } else { Some(0) })
    }
}

/// The end-to-end pass goes on past `--seconds`, up to this many times as
/// long, while fewer than [`ENOUGH_QUIET_REPS`] of its reps were quiet. A
/// noisy burst on the sandbox lasts 10-60 s with no quiet window at all; a
/// run that ends inside one has nothing near the quiet calibration to
/// anchor the adjustment, and its estimate was off by -55% to +70% in the
/// runs collected that way, against +-5% for runs with eight quiet reps.
/// Bounded so that even if every one of the driver's 136 runs stretched to
/// the full, they would still fit its time budget.
const MAX_STRETCH: f64 = 3.0;

/// Quiet reps at which the end-to-end pass stops stretching.
const ENOUGH_QUIET_REPS: usize = 8;

/// Cycles through `arms` — (wait for quiet,) rep of arm 0, calibrate, rep
/// of arm 1, calibrate, ... — for `seconds`, verifying every rep; with
/// `stretch`, on until arm 0 has [`ENOUGH_QUIET_REPS`] quiet reps or
/// [`MAX_STRETCH`] times `seconds` have passed. Returns one series per arm.
fn run_arms(
    arms: &mut [(&str, &mut dyn FnMut() -> Rep)],
    gate: &mut Gate,
    seconds: f64,
    stretch: bool,
    ops_per_rep: u64,
    oracle: &mut Oracle,
    cpu_ms: &dyn Fn() -> f64,
) -> Vec<Series> {
    let mut series: Vec<Series> = arms.iter().map(|_| Series::default()).collect();
    let started = Instant::now();
    let mut before = gate.calibrate();
    let mut turn = 0;
    loop {
        let arm = turn % arms.len();
        // Every arm gets the same number of reps: stop only between rounds.
        if arm == 0 {
            let elapsed = started.elapsed().as_secs_f64();
            let wanting = stretch
                && elapsed < seconds * MAX_STRETCH
                && series[0].quiet(gate) < ENOUGH_QUIET_REPS;
            if elapsed >= seconds && !wanting {
                return series;
            }
        }
        before = gate.await_quiet(before);
        let cpu0 = cpu_ms();
        let mut rep = (arms[arm].1)();
        let cpu1 = cpu_ms();
        let after = gate.calibrate_after();
        oracle.check(&rep, ops_per_rep, arms[arm].0);
        rep.last_frame = None;
        series[arm].reps.push(rep);
        series[arm].flanks.push((before, after));
        series[arm].cpu_ms.push(cpu1 - cpu0);
        before = after;
        turn += 1;
    }
}

fn note_noise(notes: &mut Vec<String>, what: &str, adjusted: &Adjusted) {
    if adjusted.host_noisy {
        notes.push(format!(
            "host_noisy: {what}: only {:.0}% of {} reps were quiet; the values \
             are extrapolated to {:.2} ms of calibration",
            adjusted.quiet_share * 100.0,
            adjusted.values.len(),
            adjusted.reference_ms
        ));
    }
}

/// The highest percentile the latency sample supports (ten samples beyond
/// it), as a remark beside the median.
fn tail_note(latencies_ms: &[f64]) -> String {
    match estimator::highest_supported_percentile(latencies_ms.len()) {
        Some(p) => format!(
            "job latency over {} jobs: p50 {:.3} ms, p{p} {:.3} ms (highest percentile with ten samples beyond it)",
            latencies_ms.len(),
            estimator::percentile(latencies_ms, 50.0),
            estimator::percentile(latencies_ms, p),
        ),
        None => format!(
            "job latency: {} samples support no percentile",
            latencies_ms.len()
        ),
    }
}

/// The run's quiet-host gate, its floor remembered in `out/calib-floor`.
fn open_gate() -> Gate {
    Gate::open(host::allowed_cpus(), Some(out_dir().join("calib-floor")))
}

/// Per-job times (`per_job(rep)`) of every rep, each scaled as its rep's
/// wall time was by the calibration adjustment.
fn adjusted_per_job(series: &Series, secs: &Adjusted, per_job: fn(&Rep) -> &[f64]) -> Vec<f64> {
    series
        .reps
        .iter()
        .zip(&secs.values)
        .flat_map(|(rep, adjusted)| {
            let factor = adjusted / rep.secs;
            per_job(rep).iter().map(move |ms| ms * factor)
        })
        .collect()
}

/// Runs one pass of one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        per_layer_pass(args)
    } else {
        end_to_end_pass(args)
    }
}

fn end_to_end_pass(args: &Args) -> Result<Outcome, String> {
    let spec = args.spec;
    let mut gate = open_gate();
    let mut m = Metrics::new(&END_TO_END);

    // Set-up, several times; the last one stays up for the measurement.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_flanks = Vec::with_capacity(SETUPS);
    let mut warm_ups = Vec::with_capacity(SETUPS);
    let mut live = None;
    let mut before = gate.calibrate();
    for _ in 0..SETUPS {
        if let Some(previous) = live.take() {
            Bench::tear_down(previous)?;
        }
        before = gate.await_quiet(before);
        let t0 = Instant::now();
        let (bench, warm) = Bench::set_up(spec, args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        let after = gate.calibrate_after();
        setup_flanks.push((before, after));
        before = after;
        warm_ups.push(warm);
        live = Some(bench);
    }
    let bench = live.expect("SETUPS > 0");

    let mut oracle = Oracle::establish(spec, args.seed)?;
    for warm in &warm_ups {
        oracle.check(warm, 1, "warm-up");
    }
    drop(warm_ups);

    let ops = match spec.mode {
        Mode::Fleet(_) => u64::from(spec.batch),
        _ => 1,
    };
    let series = run_arms(
        &mut [("rep", &mut || bench.rep())],
        &mut gate,
        args.seconds,
        true,
        ops,
        &mut oracle,
        &|| 0.0,
    );
    gate.remember();
    let floor = gate.fastest();
    let series = &series[0];
    let secs = series.adjusted(floor, |r| r.secs);
    let mut notes = std::mem::take(&mut oracle.notes);
    note_noise(&mut notes, "reps", &secs);

    let rep_secs = estimator::summarize(&secs.values);
    let frames = f64::from(spec.frames_per_rep());
    m.set("frames_per_s", rep_secs.inverted(|s| frames / s));
    match spec.mode {
        Mode::Fleet(_) => {
            let latencies = adjusted_per_job(series, &secs, |r| &r.latency_ms);
            m.set(
                "job_latency_ms_p50",
                estimator::summarize_at(&latencies, 50.0),
            );
            notes.push(tail_note(&latencies));
        }
        _ => m.set("job_latency_ms_p50", rep_secs.scaled(1e3)),
    }
    let setup = estimator::adjust(&setups, &setup_flanks, floor);
    notes.push(format!(
        "set-up ms (calib before,after): {}",
        setups
            .iter()
            .zip(&setup_flanks)
            .map(|(s, f)| format!("{:.2}({:.1},{:.1})", s * 1e3, f.0, f.1))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    m.set("setup_s", estimator::summarize(&setup.values));
    bench.tear_down()?;
    let peaks = fresh_process_peaks(spec, args.seed)?;
    m.set("peak_rss_mib", estimator::summarize(&peaks));
    notes.push(format!("fresh-process peak MiB: {peaks:?}"));
    notes.push(format!(
        "{} reps, quiet share {:.2}, slope {:.3} ms/ms at {:.2} ms, host.calib_ms {}",
        series.reps.len(),
        secs.quiet_share,
        secs.slope * 1e3,
        secs.reference_ms,
        floor
    ));
    notes.push(format!(
        "rep ms (calib before,after): {}",
        series
            .reps
            .iter()
            .zip(&series.flanks)
            .map(|(r, f)| format!("{:.2}({:.1},{:.1})", r.secs * 1e3, f.0, f.1))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(Outcome {
        correct: oracle.failed == 0,
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: m.rows,
        notes,
    })
}

/// Body of the `rss-probe <workload> <seed>` mode: brings the workload up in
/// this fresh process as a run does — front end, `prepare`, fleet, warm-up
/// batch (for the fleet, whose warm-up is one job, a batch on top) — and
/// returns the peak resident set (`VmHWM`) of the process and its daemons.
pub fn rss_probe(spec: &Spec, seed: u64) -> Result<f64, String> {
    let (bench, mut batch) = Bench::set_up(spec, seed)?;
    if bench.fleet.is_some() {
        batch = bench.rep();
    }
    let peak = bench.peak_rss_mib();
    bench.tear_down()?;
    match batch.error {
        Some(e) => Err(e),
        None => Ok(peak),
    }
}

/// `peak_rss_mib` of [`RSS_PROBES`] fresh processes in `rss-probe` mode, one
/// after the other. The high-water mark of the measuring process itself is
/// no measure of the program: glibc keeps 20 to 76 MiB of freed heap
/// resident between reps of the corner turn, a rep on top of that peaks at
/// 65, 79 or 92 MiB, and the run's mark is whichever level its reps happened
/// to reach (quartile spread 22-26% of the median over ten runs, against
/// 63.5-63.9 MiB in twelve fresh processes). One batch in a fresh process is
/// also what a `sage run` is.
fn fresh_process_peaks(spec: &Spec, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..RSS_PROBES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["rss-probe", spec.name, &seed.to_string()])
                .stdin(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning rss-probe: {e}"))?;
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .ok()
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("rss-probe exited with {}", out.status))
        })
        .collect()
}

/// How much slower `other`'s reps are than `base`'s, in percent: the median
/// (and quartiles) over rounds of the ratio of the two reps of one round,
/// rounds where both were quiet. The reps of a round run back to back, so
/// the ratio sees the same host; its quartiles show how far rep-to-rep
/// variation of the workload itself blurs the figure.
fn paired_overhead_pct(base: &Series, other: &Series, gate: &Gate) -> Summary {
    let rounds = base.reps.len().min(other.reps.len());
    let pct = |i: usize| (other.reps[i].secs / base.reps[i].secs - 1.0) * 100.0;
    let mut quiet: Vec<f64> = (0..rounds)
        .filter(|&i| base.is_quiet(gate, i) && other.is_quiet(gate, i))
        .map(pct)
        .collect();
    if quiet.is_empty() {
        quiet = (0..rounds).map(pct).collect();
    }
    estimator::summarize(&quiet)
}

/// Mean over ranks of `f(rank)` nanoseconds, in ms per frame.
fn rank_ms_per_frame(rep: &Rep, frames: f64, f: impl Fn(&trace::RankTrace) -> u64) -> f64 {
    if rep.ranks.is_empty() {
        return 0.0;
    }
    let ns: u64 = rep.ranks.iter().map(f).sum();
    ns as f64 / rep.ranks.len() as f64 / frames / 1e6
}

fn us(per_op_secs: Summary) -> Summary {
    per_op_secs.scaled(1e6)
}

fn per_layer_pass(args: &Args) -> Result<Outcome, String> {
    let spec = args.spec;
    let mut gate = open_gate();
    let mut m = Metrics::new(&PER_LAYER);
    let (bench, warm) = Bench::set_up(spec, args.seed)?;
    let mut oracle = Oracle::establish(spec, args.seed)?;
    oracle.check(&warm, 1, "warm-up");
    let p = &bench.program;
    let frames = f64::from(spec.frames_per_rep());
    let is_fleet = matches!(spec.mode, Mode::Fleet(_));
    let is_tcp = spec.mode == Mode::Tcp;
    let ops = if is_fleet { u64::from(spec.batch) } else { 1 };

    // The wrapped registry and, for TCP, the program prepared from it.
    let (registry, names) = trace::wrap_registry(&p.project.registry);
    let tracing = Tracing {
        registry: &registry,
        names: names.len(),
        keep_frames_below: TRACE_FRAMES,
    };
    let wrapped = if is_tcp {
        Some(prepare(&p.program, &registry).map_err(|e| e.to_string())?)
    } else {
        None
    };

    // Arms: untraced, traced, and the workload's extra comparisons. Fleet
    // daemons run `serve_fleet` in their own processes: there is no seam of
    // theirs to wrap from here, so the fleet has the untraced arm only and
    // its spans are the jobs themselves.
    let mut untraced = || bench.rep();
    let mut traced = || match &wrapped {
        Some(w) => workloads::run_tcp(p, w, spec.batch, Some(&tracing)),
        None => workloads::run_local_traced(p, &tracing, spec.batch),
    };
    let probe_options = p.options.clone().with_probes(true);
    let mut probes = || workloads::run_local(p, &probe_options, spec.batch);
    let mut local_twin = || workloads::run_local(p, &p.options, spec.batch);
    let mut arms: Vec<(&str, &mut dyn FnMut() -> Rep)> = vec![("untraced rep", &mut untraced)];
    if !is_fleet {
        arms.push(("traced rep", &mut traced));
    }
    if matches!(spec.mode, Mode::Stream(_)) {
        arms.push(("probes-on rep", &mut probes));
    }
    if is_tcp {
        arms.push(("local-twin rep", &mut local_twin));
    }
    let arm_seconds = args.seconds * ARM_SHARE * arms.len().max(2) as f64;
    let series = run_arms(
        &mut arms,
        &mut gate,
        arm_seconds,
        false,
        ops,
        &mut oracle,
        &|| bench.cpu_ms(),
    );
    drop(arms);
    let floor = gate.fastest();
    let mut notes = std::mem::take(&mut oracle.notes);

    let plain = &series[0];
    let plain_adjusted = plain.adjusted(floor, |r| r.secs);
    note_noise(&mut notes, "untraced reps", &plain_adjusted);
    let plain_secs = estimator::summarize(&plain_adjusted.values);

    m.value("host.quiet_share", plain_adjusted.quiet_share);
    m.value("host.noisy", f64::from(u8::from(plain_adjusted.host_noisy)));
    m.value("host.samples", plain.reps.len() as f64);
    m.value(
        "host.cpu_ms_per_frame",
        plain.cpu_ms.iter().sum::<f64>() / (frames * plain.reps.len().max(1) as f64),
    );

    if is_fleet {
        notes.push(fleet_metrics(&mut m, &bench, plain, &plain_adjusted));
        write_fleet_trace(args, plain, plain.representative(&gate), &mut notes);
    } else {
        let traced_series = &series[1];
        m.set(
            "trace.overhead_pct",
            paired_overhead_pct(plain, traced_series, &gate),
        );
        m.set(
            "fabric.msgs_per_frame",
            plain.over(floor, |r| r.messages as f64 / frames),
        );
        m.set(
            "fabric.bytes_per_frame",
            plain.over(floor, |r| r.bytes as f64 / frames),
        );
        if is_tcp {
            m.set(
                "net.wire_bytes_per_frame",
                plain.over(floor, |r| r.wire_bytes() as f64 / frames),
            );
            m.set("net.mesh_connect_ms", plain.over(floor, |r| r.connect_ms));
        }
        // Self time per layer, from the traced reps.
        let (send, recv) = if is_tcp {
            ("net.send_ms_per_frame", "net.recv_wait_ms_per_frame")
        } else {
            ("fabric.send_ms_per_frame", "fabric.recv_wait_ms_per_frame")
        };
        let ns = |k: Kind| move |r: &trace::RankTrace| r.rec.ns[k as usize];
        let kernel = |r: &Rep| rank_ms_per_frame(r, frames, ns(Kind::Kernel));
        let source = |r: &Rep| rank_ms_per_frame(r, frames, ns(Kind::Source));
        let sent = |r: &Rep| {
            rank_ms_per_frame(r, frames, ns(Kind::Send))
                + rank_ms_per_frame(r, frames, ns(Kind::CreditSend))
        };
        let waited = |r: &Rep| {
            rank_ms_per_frame(r, frames, ns(Kind::RecvWait))
                + rank_ms_per_frame(r, frames, ns(Kind::CreditWait))
        };
        let wall = |r: &Rep| rank_ms_per_frame(r, frames, trace::RankTrace::wall_ns);
        let glue = |r: &Rep| wall(r) - kernel(r) - source(r) - sent(r) - waited(r);
        m.set(
            "signal.kernel_ms_per_frame",
            traced_series.over(floor, kernel),
        );
        m.set(
            "signal.source_ms_per_frame",
            traced_series.over(floor, source),
        );
        m.set(send, traced_series.over(floor, sent));
        m.set(recv, traced_series.over(floor, waited));
        m.set("runtime.glue_ms_per_frame", traced_series.over(floor, glue));
        m.set(
            "signal.kernel_share",
            traced_series.over(floor, |r| kernel(r) / wall(r)),
        );
        m.set(
            "signal.source_share",
            traced_series.over(floor, |r| source(r) / wall(r)),
        );
        m.set(
            "runtime.glue_share",
            traced_series.over(floor, |r| glue(r) / wall(r)),
        );
        let overrun = traced_series
            .reps
            .iter()
            .flat_map(|r| &r.ranks)
            .filter(|r| r.attributed_ns() > r.wall_ns())
            .count();
        if overrun > 0 {
            notes.push(format!(
                "{overrun} rank recordings have spans exceeding the rank's wall time"
            ));
        }
        if let Some(i) = traced_series.representative(&gate) {
            let path = trace_path(spec.name);
            let written = trace::write_trace_file(
                &path,
                spec.name,
                args.seed,
                i,
                spec.batch,
                &names,
                &traced_series.reps[i].ranks,
            );
            note_written(&mut notes, &path, written);
        }
        if let Some(probed) = series
            .get(2)
            .filter(|_| matches!(spec.mode, Mode::Stream(_)))
        {
            m.set(
                "visualizer.probe_overhead_pct",
                paired_overhead_pct(plain, probed, &gate),
            );
        }
        if let Some(twin) = series.get(2).filter(|_| is_tcp) {
            m.value(
                "net.tcp_over_local_ratio",
                plain_secs.median / twin.over(floor, |r| r.secs).median,
            );
        }

        // Allocation pass: untimed, counting on.
        let mut counts = Vec::with_capacity(ALLOC_REPS);
        let mut bytes = Vec::with_capacity(ALLOC_REPS);
        for _ in 0..ALLOC_REPS {
            let (rep, c, b) = alloc::counted(|| bench.rep());
            oracle.check(&rep, 1, "allocation-pass rep");
            counts.push(c as f64 / frames);
            bytes.push(b as f64 / frames);
        }
        m.set("alloc.count_per_frame", estimator::summarize(&counts));
        m.set("alloc.bytes_per_frame", estimator::summarize(&bytes));
    }

    layer_cells(
        &mut m,
        spec,
        p,
        &mut gate,
        plain_secs.median / frames,
        &mut notes,
    );
    gate.remember();
    m.value("host.calib_ms", gate.fastest());
    notes.append(&mut oracle.notes);
    bench.tear_down()?;
    Ok(Outcome {
        correct: oracle.failed == 0,
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: m.rows,
        notes,
    })
}

fn fleet_metrics(m: &mut Metrics, bench: &Bench, plain: &Series, secs: &Adjusted) -> String {
    let jobs_per_rep = f64::from(bench.spec.batch);
    m.set(
        "fleet.jobs_per_s",
        estimator::summarize(&secs.values).inverted(|s| jobs_per_rep / s),
    );
    let latency = adjusted_per_job(plain, secs, |r| &r.latency_ms);
    // Scheduler-reported run time, scaled like the latency it is part of.
    let run = adjusted_per_job(plain, secs, |r| &r.run_ms);
    let wait: Vec<f64> = latency.iter().zip(&run).map(|(l, r)| l - r).collect();
    m.set(
        "fleet.job_latency_ms_p95",
        estimator::summarize_at(&latency, 95.0),
    );
    m.set(
        "fleet.queue_wait_ms_p50",
        estimator::summarize_at(&wait, 50.0),
    );
    m.set("fleet.run_ms_p50", estimator::summarize_at(&run, 50.0));
    if let Some(fleet) = &bench.fleet {
        let (admitted, rejected) = fleet.admission();
        m.value("fleet.admitted", admitted as f64);
        m.value("fleet.rejected", rejected as f64);
    }
    tail_note(&latency)
}

fn note_written(notes: &mut Vec<String>, path: &std::path::Path, written: std::io::Result<()>) {
    notes.push(match written {
        Ok(()) => format!("trace written to {}", path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    out_dir().join(format!("trace-{workload}.json"))
}

/// `benchmark/out/` next to the sources when run from a checkout root,
/// `out/` under the current directory otherwise.
pub fn out_dir() -> std::path::PathBuf {
    let in_checkout = std::path::Path::new("benchmark/Cargo.toml");
    if in_checkout.exists() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

/// The fleet's trace: one span per job of a quiet rep (client
/// submit -> merged reports), with the scheduler-reported run inside it.
fn write_fleet_trace(args: &Args, plain: &Series, rep: Option<usize>, notes: &mut Vec<String>) {
    use std::fmt::Write as _;
    let Some(i) = rep else {
        return;
    };
    let rep = &plain.reps[i];
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"unit\":\"ms\",\"rep\":{{\"id\":{i},\"jobs\":{},\"wall_ms\":{}}},\n\"spans\":[",
        args.spec.name,
        args.seed,
        rep.latency_ms.len(),
        rep.secs * 1e3
    );
    for (j, (latency, run)) in rep.latency_ms.iter().zip(&rep.run_ms).enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"job\",\"parent\":\"rep\",\"job\":{j},\"client_latency_ms\":{latency},\
             \"children\":[{{\"name\":\"fleet.run\",\"ms\":{run}}},{{\"name\":\"fleet.queue_wait\",\"ms\":{}}}]}}",
            latency - run
        );
    }
    out.push_str("]}\n");
    let path = trace_path(args.spec.name);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, out));
    note_written(notes, &path, written);
}

/// The micro-cells of the layers that dominate `spec` (the others read 0
/// on this workload — see the README's table of which cell runs where).
fn layer_cells(
    m: &mut Metrics,
    spec: &Spec,
    p: &Program,
    gate: &mut Gate,
    sage_secs_per_frame: f64,
    notes: &mut Vec<String>,
) {
    let mut missing = |what: &str| notes.push(format!("cell `{what}` failed; its metrics read 0"));
    let big_local = spec.mode == Mode::Local && spec.size == 512;
    let corner = spec.app == workloads::App::CornerTurn;
    if big_local && !corner {
        match cells::fft_rows_512(gate) {
            Some(c) => {
                m.set("signal.fft_rows_512_us", us(c));
                m.set(
                    "signal.fft_mflops",
                    c.inverted(|s| cells::FFT_ROWS_512_FLOPS / s / 1e6),
                );
            }
            None => missing("signal.fft_rows_512"),
        }
    }
    if big_local {
        match cells::transpose_512(gate) {
            Some(c) => m.set("signal.transpose_512_us", us(c)),
            None => missing("signal.transpose_512"),
        }
        match cells::fabric_handoff(gate) {
            Some(c) => m.set(
                "fabric.handoff_gib_s_1m",
                cells::gib_per_s(c, cells::MIB_BYTES),
            ),
            None => missing("fabric.handoff"),
        }
        match cells::hand_coded_512(gate, corner, spec.batch) {
            Some(c) => {
                m.set("apps.hand_ms_per_frame", c.scaled(1e3));
                m.value(
                    "apps.glue_overhead_pct",
                    (sage_secs_per_frame / c.median - 1.0) * 100.0,
                );
            }
            None => missing("apps.hand_coded"),
        }
    }
    if big_local && corner {
        match cells::pack_unpack_512(gate) {
            Some((pack, unpack)) => {
                m.set(
                    "runtime.pack_gib_s",
                    cells::gib_per_s(pack, cells::PACK_BYTES),
                );
                m.set(
                    "runtime.unpack_gib_s",
                    cells::gib_per_s(unpack, cells::PACK_BYTES),
                );
            }
            None => missing("runtime.pack_unpack"),
        }
        match cells::plan_512(gate) {
            Some(c) => m.set("runtime.plan_us", us(c)),
            None => missing("runtime.plan"),
        }
    }
    if matches!(spec.mode, Mode::Stream(_)) {
        match cells::fabric_rtt(gate) {
            Some(c) => m.set("fabric.rtt_us_64b", us(c)),
            None => missing("fabric.rtt"),
        }
    }
    if matches!(spec.mode, Mode::Stream(_) | Mode::Fleet(_)) {
        match cells::prepare_cell(gate, p) {
            Some(c) => m.set("runtime.prepare_us", us(c)),
            None => missing("runtime.prepare"),
        }
    }
    if spec.mode == Mode::Tcp && spec.size == 64 {
        match cells::net_rtt(gate) {
            Some(c) => m.set("net.rtt_us_64b", us(c)),
            None => missing("net.rtt"),
        }
    }
    if spec.mode == Mode::Tcp && spec.size == 512 {
        match cells::net_stream(gate) {
            Some(c) => m.set("net.stream_gib_s_1m", cells::gib_per_s(c, cells::MIB_BYTES)),
            None => missing("net.stream"),
        }
        match cells::wire_codec(gate) {
            Some((encode, decode)) => {
                m.set(
                    "net.wire_encode_gib_s",
                    cells::gib_per_s(encode, cells::MIB_BYTES),
                );
                m.set(
                    "net.wire_decode_gib_s",
                    cells::gib_per_s(decode, cells::MIB_BYTES),
                );
            }
            None => missing("net.wire_codec"),
        }
    }
    if matches!(spec.mode, Mode::Fleet(_)) {
        match cells::front_end_cells(gate, p) {
            Some([parse, lint, check, codegen]) => {
                m.set("core.parse_us", us(parse));
                m.set("lint.lint_us", us(lint));
                m.set("check.check_us", us(check));
                m.set("core.codegen_us", us(codegen));
            }
            None => missing("front end"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_reports_the_resident_set_of_a_set_up() {
        let spec = Spec::by_name("fft2d_64_tcp").expect("a workload");
        let mib = rss_probe(spec, 1).expect("the probe runs");
        assert!(mib > 1.0 && mib < 1024.0, "{mib}");
    }
}
