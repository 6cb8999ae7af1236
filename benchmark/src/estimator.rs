//! Host-noise-aware estimation: the calibrator, the quiet-host gate, the
//! calibration adjustment with its `host_noisy` flag, and the percentile
//! rule.
//!
//! The sandbox this benchmark runs on is bimodal — throughput-bound code
//! takes ~1x when the host is quiet and ~2x when a neighbour is busy, in
//! phases of a second to a minute — so a plain median over reps moves by
//! tens of percent between back-to-back runs of the same binary. Every timed
//! rep is therefore flanked by two runs of a fixed calibration kernel, the
//! harness waits for a quiet calibration before starting a rep, and what is
//! reported is each rep's value brought to the quiet-host calibration
//! ([`adjust`]).

use std::hint::black_box;
use std::time::Instant;

/// A calibration is quiet within this factor of the fastest calibration
/// known. Over 4300 calibrations taken after waiting for quiet, the quiet
/// cluster spans 1.0-1.25x the floor (mode at 1.15x) and a busy neighbour
/// starts at 1.6x, with almost nothing between.
pub const QUIET_FACTOR: f64 = 1.3;

/// Butterfly passes of the calibration loop per thread (~10 ms on the quiet
/// sandbox). Fixed, never tuned at run time, so `host.calib_ms` is
/// comparable between result sets.
const CALIB_PASSES: u32 = 1500;

/// Threads the calibrator occupies (= the sandbox's vCPUs = ranks per
/// workload), so a neighbour on either core shows.
const CALIB_THREADS: usize = 2;

/// The calibration kernel: radix-2 butterfly passes over a 512-point
/// L1-resident array with a twiddle table — loads, stores and dependent
/// multiply-adds in the mix the program's own kernels have.
///
/// Why this shape: the sandbox's noise is a neighbour on the sibling
/// hyperthread, on for seconds at a time. It halves the throughput of
/// load/store/FP-dense code (`Fft1d::process_rows` on a 256 x 512 stripe:
/// 1.7 ms quiet, 3.3 ms contended) and leaves a serial integer dependency
/// chain untouched (22.5 ms in both phases), so an integer loop cannot see
/// it; this loop swings 10 -> 18 ms with it. Over 450 samples, FFT calls
/// flanked by two calibrations within [`QUIET_FACTOR`] of the fastest had
/// median 1.74 ms and none in the slow mode; the others had median 2.66 ms
/// and 60% in the slow mode.
fn butterflies(passes: u32) -> f32 {
    const N: usize = 512;
    let mut re = [0f32; N];
    let mut im = [0f32; N];
    let mut wr = [0f32; N / 2];
    let mut wi = [0f32; N / 2];
    for i in 0..N {
        re[i] = (i as f32 * 0.37).sin();
        im[i] = (i as f32 * 0.11).cos();
    }
    for k in 0..N / 2 {
        let a = -2.0 * std::f32::consts::PI * k as f32 / N as f32;
        wr[k] = a.cos();
        wi[k] = a.sin();
    }
    for _ in 0..black_box(passes) {
        let mut half = 1;
        while half < N {
            let step = N / (2 * half);
            for base in (0..N).step_by(2 * half) {
                for j in 0..half {
                    let (a, b) = (base + j, base + j + half);
                    let (c, s) = (wr[j * step], wi[j * step]);
                    let (tr, ti) = (re[b] * c - im[b] * s, re[b] * s + im[b] * c);
                    // Halving keeps the values bounded over any number of
                    // passes.
                    re[b] = (re[a] - tr) * 0.5;
                    im[b] = (im[a] - ti) * 0.5;
                    re[a] = (re[a] + tr) * 0.5;
                    im[a] = (im[a] + ti) * 0.5;
                }
            }
            half *= 2;
        }
    }
    re[1] + im[2]
}

/// Runs the fixed calibration kernel on [`CALIB_THREADS`] threads, thread `i`
/// pinned to the `i`-th of `cpus` like a rank, and returns the wall time in
/// milliseconds. Written here, never repo code: a change to the program
/// must not be able to move the yardstick.
pub fn calibrate(cpus: &[usize]) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for slot in 0..CALIB_THREADS {
            s.spawn(move || {
                crate::host::pin(0, cpus, slot);
                black_box(butterflies(CALIB_PASSES))
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// Calibrations [`Gate::await_quiet`] spends at most waiting for a quiet
/// host before a rep is run regardless (~0.2 s).
const MAX_QUIET_POLLS: usize = 20;

/// The quiet-host gate of one run: calibrates, remembers the fastest
/// calibration, and knows what "quiet" means.
///
/// The fastest calibration is also kept in a file between runs. A noisy
/// phase can outlast a whole run; judged only against its own fastest
/// calibration such a run would call its reps quiet and report half speed.
/// Any 10 ms of quiet in any earlier run of the same checkout sets the
/// floor. (Delete the file when the checkout moves to another machine: a
/// floor the new host cannot reach marks every rep noisy.)
pub struct Gate {
    cpus: Vec<usize>,
    fastest: f64,
    floor_file: Option<std::path::PathBuf>,
}

impl Gate {
    /// Opens the gate: loads the remembered floor (if any) and takes a first
    /// calibration.
    pub fn open(cpus: Vec<usize>, floor_file: Option<std::path::PathBuf>) -> Gate {
        let remembered = floor_file
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|v| v.is_finite() && *v > 0.0);
        let mut gate = Gate {
            cpus,
            fastest: remembered.unwrap_or(f64::INFINITY),
            floor_file,
        };
        gate.calibrate();
        gate
    }

    /// One calibration, ms; lowers the floor if it beats it.
    pub fn calibrate(&mut self) -> f64 {
        let ms = calibrate(&self.cpus);
        self.fastest = self.fastest.min(ms);
        ms
    }

    /// The calibration that closes a rep: like [`Gate::calibrate`], but a
    /// noisy reading is taken again and the better of the two stands. The
    /// first calibration after a rep is disturbed by the rep's own
    /// aftermath (the kernel still reclaiming the tens of MiB it freed): of
    /// 3564 calibrations taken right after a rep, half read 1.2-1.55x the
    /// floor, a band that holds 1% of those taken a calibration later. A
    /// neighbour that is really there is still there 10 ms on.
    pub fn calibrate_after(&mut self) -> f64 {
        let first = self.calibrate();
        if self.is_quiet(first) {
            first
        } else {
            first.min(self.calibrate())
        }
    }

    /// The CPUs ranks (and the calibrator) are placed on.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// The fastest calibration known, ms (`host.calib_ms`).
    pub fn fastest(&self) -> f64 {
        self.fastest
    }

    /// Whether a calibration of `ms` counts as quiet.
    pub fn is_quiet(&self, ms: f64) -> bool {
        ms <= self.fastest * QUIET_FACTOR
    }

    /// Re-calibrates while the host is noisy, so the rep that follows has a
    /// chance of counting: takes the calibration just measured, returns the
    /// last one taken — the rep's "before" flank. A rep started in a noisy
    /// phase would be discarded anyway; polling costs 10 ms a try instead
    /// of a whole rep. Gives up after [`MAX_QUIET_POLLS`] tries, so a host
    /// that never quietens still yields reps to extrapolate from.
    pub fn await_quiet(&mut self, mut last: f64) -> f64 {
        for _ in 0..MAX_QUIET_POLLS {
            if self.is_quiet(last) {
                break;
            }
            last = self.calibrate();
        }
        last
    }

    /// Writes the floor back for later runs. Failure to write only costs
    /// those runs the memory.
    pub fn remember(&self) {
        if let Some(path) = &self.floor_file {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(path, format!("{}\n", self.fastest));
        }
    }
}

/// How a series of per-rep values was brought to a common host condition.
#[derive(Clone, Debug, PartialEq)]
pub struct Adjusted {
    /// The values, each moved to what it would have read at the reference
    /// calibration.
    pub values: Vec<f64>,
    /// Value units per calibration millisecond (Theil-Sen, between zero and
    /// direct proportionality).
    pub slope: f64,
    /// The calibration the values are referred to, ms: the median of the
    /// run's quiet calibrations.
    pub reference_ms: f64,
    /// Share of reps whose flanks were both quiet.
    pub quiet_share: f64,
    /// `true` when fewer than [`MIN_QUIET_REPS`] reps were quiet: the
    /// reference is then `1.1 x` the floor by convention and the values lean
    /// on extrapolation.
    pub host_noisy: bool,
}

/// Fewer quiet reps than this and a run is marked `host_noisy`.
pub const MIN_QUIET_REPS: usize = 3;

/// Brings per-rep `values` to a common host condition.
///
/// `flanks[i]` are the calibrations taken just before and just after rep
/// `i`; a rep is as noisy as its worse flank. `floor` is the fastest
/// calibration known ([`Gate::fastest`]).
///
/// A noisy phase slows a rep and its flanking calibrations together, so
/// within a run the value is regressed on the calibration (Theil-Sen: the
/// median of pairwise slopes, robust to the odd rep a burst hit between its
/// flanks) and every value is moved along that line to the reference
/// calibration — the median of the run's quiet calibrations, those within
/// [`QUIET_FACTOR`] of the floor. Quiet reps barely move; noisy reps are
/// brought to where the quiet ones are instead of being thrown away, so a
/// run through a noisy minute still reports the quiet-host value.
///
/// Measured on the sandbox over 7 to 8 runs per workload on a calm host,
/// then 6 per workload with a synthetic neighbour on both CPUs half the
/// time: the median over quiet reps only had a quartile spread of 2.7-8.8%
/// (calm) and 3.3-13.4% (noisy) of its median, this estimate 3.2-5.4% and
/// 5.0-7.6%, at the same level.
pub fn adjust(values: &[f64], flanks: &[(f64, f64)], floor: f64) -> Adjusted {
    assert_eq!(
        flanks.len(),
        values.len(),
        "every rep needs two flanking calibrations"
    );
    let worst: Vec<f64> = flanks.iter().map(|f| f.0.max(f.1)).collect();
    let limit = floor * QUIET_FACTOR;
    let quiet: Vec<f64> = worst.iter().copied().filter(|&c| c <= limit).collect();
    let host_noisy = quiet.len() < MIN_QUIET_REPS;
    let reference_ms = if host_noisy {
        floor * 1.1
    } else {
        summarize(&quiet).median
    };
    // Pairs closer in calibration than this say nothing about the slope.
    let min_gap = floor * 0.03;
    let mut slopes = Vec::new();
    for i in 0..values.len() {
        for j in i + 1..values.len() {
            let gap = worst[j] - worst[i];
            if gap.abs() > min_gap {
                slopes.push((values[j] - values[i]) / gap);
            }
        }
    }
    // A rep cannot slow down more than in proportion to the calibration
    // (the kernel is about as sensitive to a neighbour as code gets): a
    // steeper fit is noise with no leverage behind it.
    let proportional = summarize(values).median / summarize(&worst).median.max(f64::MIN_POSITIVE);
    let slope = if slopes.len() >= 10 {
        summarize(&slopes).median.clamp(0.0, proportional.max(0.0))
    } else {
        0.0
    };
    Adjusted {
        values: values
            .iter()
            .zip(&worst)
            .map(|(v, c)| v - slope * (c - reference_ms))
            .collect(),
        slope,
        reference_ms,
        quiet_share: if values.is_empty() {
            0.0
        } else {
            quiet.len() as f64 / values.len() as f64
        },
        host_noisy,
    }
}

/// Median, quartiles and sample count of a set of values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// `f` applied to a summary of times, for metrics where larger is better
    /// (the quartiles swap).
    pub fn inverted(self, f: impl Fn(f64) -> f64) -> Summary {
        Summary {
            n: self.n,
            q1: f(self.q3),
            median: f(self.median),
            q3: f(self.q1),
        }
    }

    /// The summary in another unit.
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            n: self.n,
            q1: self.q1 * k,
            median: self.median * k,
            q3: self.q3 * k,
        }
    }
}

/// Summary of `values` whose headline figure is their `p`-th percentile
/// instead of the median (quartiles and count as usual).
pub fn summarize_at(values: &[f64], p: f64) -> Summary {
    Summary {
        median: percentile(values, p),
        ..summarize(values)
    }
}

/// Linear-interpolated quantile of sorted `v` at `q` in `[0, 1]`.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Summarises `values` (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// Nearest-rank percentile `p` (0..100) of `values` (any order).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the reporting ladder that still has at least
/// ten samples beyond it in a sample of `n` — the tail a sample this size
/// supports. `None` below 20 samples (not even the median qualifies).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille, so the "ten beyond" test is exact integer arithmetic.
    const LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];
    LADDER
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*, seeded: the synthetic series must not depend on the
    /// host.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A bimodal host: phases of 1..12 reps, slow with probability
    /// `slow_share`; slow phases stretch reps by 2.1x and calibrations by
    /// 2.0x, everything jitters by +-2%. Returns (rep seconds, calibrations).
    fn bimodal(seed: u64, reps: usize, slow_share: f64, truth: f64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng(seed | 1);
        // Phase per calibration point (reps + 1 of them); a rep is slow if
        // either of its flanks is (the phase changed under it).
        let mut slow_at = Vec::with_capacity(reps + 1);
        while slow_at.len() < reps + 1 {
            let len = 1 + (rng.next() * 11.0) as usize;
            let slow = rng.next() < slow_share;
            slow_at.extend(std::iter::repeat_n(slow, len));
        }
        slow_at.truncate(reps + 1);
        let calibs: Vec<f64> = slow_at
            .iter()
            .map(|&s| 20.0 * if s { 2.0 } else { 1.0 } * (0.98 + 0.04 * rng.next()))
            .collect();
        let secs: Vec<f64> = (0..reps)
            .map(|i| {
                let slow = slow_at[i] || slow_at[i + 1];
                truth * if slow { 2.1 } else { 1.0 } * (0.98 + 0.04 * rng.next())
            })
            .collect();
        (secs, calibs)
    }

    fn median(values: &[f64]) -> f64 {
        summarize(values).median
    }

    /// Back-to-back reps share calibrations: rep `i` sits between
    /// `calibs[i]` and `calibs[i + 1]`.
    fn adjust_chain(secs: &[f64], calibs: &[f64]) -> Adjusted {
        let flanks: Vec<(f64, f64)> = calibs.windows(2).map(|w| (w[0], w[1])).collect();
        let floor = calibs.iter().copied().fold(f64::INFINITY, f64::min);
        adjust(secs, &flanks, floor)
    }

    #[test]
    fn adjusted_median_tracks_fast_mode_where_plain_median_fails() {
        let truth = 0.2;
        let mut plain_failures = 0;
        for (k, slow_share) in [0.3, 0.4, 0.5, 0.6, 0.7].into_iter().enumerate() {
            for seed in 1..=8u64 {
                let (secs, calibs) = bimodal(seed * 7919 + k as u64, 120, slow_share, truth);
                let adjusted = adjust_chain(&secs, &calibs);
                assert!(!adjusted.host_noisy);
                let est = median(&adjusted.values);
                let rel = (est - truth).abs() / truth;
                assert!(
                    rel < 0.05,
                    "slow_share {slow_share} seed {seed}: adjusted median {est} vs truth {truth}"
                );
                if (median(&secs) - truth).abs() / truth > 0.30 {
                    plain_failures += 1;
                }
            }
        }
        // The point of the adjustment: the plain median is badly off on a
        // good part of the same series.
        assert!(
            plain_failures >= 8,
            "plain median failed only {plain_failures} series"
        );
    }

    #[test]
    fn noisy_host_is_flagged_and_extrapolated_to_the_floor() {
        // The floor (20 ms) comes from an earlier run; in this one the host
        // is never quiet, but its noise level varies, and rep time follows
        // the calibration: t = 0.01 * c.
        let calibs: Vec<f64> = (0..=24).map(|i| 30.0 + (i % 5) as f64 * 3.0).collect();
        let flanks: Vec<(f64, f64)> = calibs.windows(2).map(|w| (w[0], w[1])).collect();
        let secs: Vec<f64> = flanks.iter().map(|f| 0.01 * f.0.max(f.1)).collect();
        let adjusted = adjust(&secs, &flanks, 20.0);
        assert!(adjusted.host_noisy);
        assert_eq!(adjusted.quiet_share, 0.0);
        assert_eq!(adjusted.reference_ms, 22.0);
        assert!((adjusted.slope - 0.01).abs() < 1e-9);
        // Every rep lands on the line's value at the reference calibration.
        assert!((median(&adjusted.values) - 0.22).abs() < 1e-9);
        assert!(median(&secs) > 0.3);
    }

    #[test]
    fn quiet_host_leaves_values_alone() {
        let flanks = vec![(20.0, 20.0); 10];
        let secs: Vec<f64> = (0..10).map(|i| 0.2 + 0.001 * i as f64).collect();
        let adjusted = adjust(&secs, &flanks, 20.0);
        assert!(!adjusted.host_noisy);
        assert_eq!(adjusted.values, secs);
        assert_eq!((adjusted.slope, adjusted.quiet_share), (0.0, 1.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(400), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }

    #[test]
    fn summary_quartiles() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn calibrator_runs_and_is_positive() {
        assert!(calibrate(&crate::host::allowed_cpus()) > 0.0);
    }
}
