//! ISSPL-like shelf kernels registered with the run-time, plus the software
//! shelf entries carrying their cost models.

use crate::workload;
use sage_model::{CostModel, ShelfFunction, SoftwareShelf};
use sage_runtime::{FnThreadCtx, Registry};
use sage_signal::complex::{as_bytes, from_bytes};
use sage_signal::cost;
use sage_signal::fft::{Fft1d, FftDirection};
use sage_signal::transpose::transpose_blocked;
use sage_signal::window::{apply_window, window_coefficients, WindowKind};
use std::collections::HashMap;
use std::sync::Mutex;

/// Plan cache shared by the FFT kernels (the 10x100-iteration benchmark
/// loops of the paper must not rebuild twiddle tables).
struct PlanCache {
    plans: Mutex<HashMap<(usize, bool), std::sync::Arc<Fft1d>>>,
}

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            plans: Mutex::new(HashMap::new()),
        }
    }

    fn get(&self, n: usize) -> std::sync::Arc<Fft1d> {
        self.get_dir(n, FftDirection::Forward)
    }

    fn get_dir(&self, n: usize, dir: FftDirection) -> std::sync::Arc<Fft1d> {
        let inverse = dir == FftDirection::Inverse;
        let mut map = self.plans.lock().expect("plan cache poisoned");
        map.entry((n, inverse))
            .or_insert_with(|| std::sync::Arc::new(Fft1d::new(n, dir)))
            .clone()
    }
}

/// Registers every application kernel used by the benchmark models.
///
/// * `workload.matrix` — source kernel: fills its output stripe with the
///   deterministic input samples; needs params `seed` and `size` and a
///   row-striped output;
/// * `isspl.fft_rows` — forward FFT of every row of the local stripe;
/// * `isspl.transpose` — local tile transpose (`[r, c]` → `[c, r]`);
/// * `isspl.transpose_fft_rows` — fused corner-turn-consumer kernel:
///   transpose the local `[R, C/N]` column stripe to `[C/N, R]`, then FFT
///   its rows (i.e. the original matrix's columns);
/// * `isspl.window_rows` — Hamming window applied to every row;
/// * `isspl.magnitude` — element-wise power (squared magnitude) into the
///   real part, used by the detection stage;
/// * `workload.bytes` — dtype-agnostic seeded byte source (fuzz corpus);
/// * `workload.splat` — fan-out-tolerant pass-through: copies the input
///   stripe into every output buffer (fuzz corpus);
/// * `workload.mix` — feedback combiner: XORs the forward input with the
///   (usually `delay`-arc) feedback input (pipeline-safety fixtures and
///   fuzz corpus).
pub fn register_kernels(reg: &mut Registry) {
    let cache = std::sync::Arc::new(PlanCache::new());

    reg.register("workload.matrix", |ctx: &mut FnThreadCtx<'_>| {
        let seed = ctx.param_i64("seed").unwrap_or(0) as u64;
        let out = ctx
            .outputs
            .first_mut()
            .ok_or("workload.matrix needs an output")?;
        if out.shape.len() != 2 {
            return Err(format!("expected a matrix stripe, got {:?}", out.shape));
        }
        let (rows, cols) = (out.shape[0], out.shape[1]);
        // Row-striped output: global row offset = thread * local rows.
        let row0 = ctx.thread * rows;
        let data = workload::input_stripe(seed, cols, row0, rows);
        out.bytes.copy_from_slice(as_bytes(&data));
        Ok(())
    });

    let c = cache.clone();
    reg.register("isspl.fft_rows", move |ctx: &mut FnThreadCtx<'_>| {
        let input = ctx.inputs.first().ok_or("isspl.fft_rows needs an input")?;
        let cols = *input.shape.last().ok_or("scalar input")?;
        let mut data = from_bytes(&input.bytes);
        c.get(cols).process_rows(&mut data);
        let out = &mut ctx.outputs[0];
        out.bytes.copy_from_slice(as_bytes(&data));
        Ok(())
    });

    reg.register("isspl.transpose", |ctx: &mut FnThreadCtx<'_>| {
        let input = ctx.inputs.first().ok_or("isspl.transpose needs an input")?;
        if input.shape.len() != 2 {
            return Err(format!("expected a matrix stripe, got {:?}", input.shape));
        }
        let (r, cdim) = (input.shape[0], input.shape[1]);
        let data = from_bytes(&input.bytes);
        let mut out_data = vec![sage_signal::Complex32::ZERO; r * cdim];
        transpose_blocked(&data, &mut out_data, r, cdim, 32);
        let out = &mut ctx.outputs[0];
        if out.shape != [cdim, r] {
            return Err(format!(
                "transpose output shape {:?} does not match [{cdim}, {r}]",
                out.shape
            ));
        }
        out.bytes.copy_from_slice(as_bytes(&out_data));
        Ok(())
    });

    let c = cache.clone();
    reg.register(
        "isspl.transpose_fft_rows",
        move |ctx: &mut FnThreadCtx<'_>| {
            let input = ctx.inputs.first().ok_or("needs an input")?;
            if input.shape.len() != 2 {
                return Err(format!("expected a matrix stripe, got {:?}", input.shape));
            }
            let (r, cdim) = (input.shape[0], input.shape[1]);
            let data = from_bytes(&input.bytes);
            let mut t = vec![sage_signal::Complex32::ZERO; r * cdim];
            transpose_blocked(&data, &mut t, r, cdim, 32);
            c.get(r).process_rows(&mut t); // rows now have length r
            ctx.outputs[0].bytes.copy_from_slice(as_bytes(&t));
            Ok(())
        },
    );

    let c = cache.clone();
    reg.register(
        "isspl.transpose_ifft_rows",
        move |ctx: &mut FnThreadCtx<'_>| {
            let input = ctx.inputs.first().ok_or("needs an input")?;
            if input.shape.len() != 2 {
                return Err(format!("expected a matrix stripe, got {:?}", input.shape));
            }
            let (r, cdim) = (input.shape[0], input.shape[1]);
            let data = from_bytes(&input.bytes);
            let mut t = vec![sage_signal::Complex32::ZERO; r * cdim];
            transpose_blocked(&data, &mut t, r, cdim, 32);
            c.get_dir(r, FftDirection::Inverse).process_rows(&mut t);
            ctx.outputs[0].bytes.copy_from_slice(as_bytes(&t));
            Ok(())
        },
    );

    reg.register("isspl.lowpass_mask", |ctx: &mut FnThreadCtx<'_>| {
        // Ideal low-pass over the (transposed) 2D spectrum: input local
        // stripe is rows `thread*rows..` of an [C, R] spectrum-transpose,
        // i.e. local row index maps to spectrum column kc and the position
        // within a row to spectrum row kr. Bins outside the `radius` box
        // (circularly) are zeroed.
        let radius = ctx.param_i64("radius").unwrap_or(8) as usize;
        let input = ctx.inputs.first().ok_or("needs an input")?;
        if input.shape.len() != 2 {
            return Err(format!("expected a matrix stripe, got {:?}", input.shape));
        }
        let (rows, cols) = (input.shape[0], input.shape[1]);
        let kc_total = rows * ctx.threads; // full C extent
        let kr_total = cols; // full R extent
        let kc0 = ctx.thread * rows;
        let data = from_bytes(&input.bytes);
        let mut out = data;
        for lr in 0..rows {
            let kc = kc0 + lr;
            let kc_fold = kc.min(kc_total - kc);
            for kr in 0..cols {
                let kr_fold = kr.min(kr_total - kr);
                if kc_fold > radius || kr_fold > radius {
                    out[lr * cols + kr] = sage_signal::Complex32::ZERO;
                }
            }
        }
        ctx.outputs[0].bytes.copy_from_slice(as_bytes(&out));
        Ok(())
    });

    reg.register("isspl.window_rows", |ctx: &mut FnThreadCtx<'_>| {
        let input = ctx.inputs.first().ok_or("needs an input")?;
        let cols = *input.shape.last().ok_or("scalar input")?;
        let coeffs = window_coefficients(WindowKind::Hamming, cols);
        let mut data = from_bytes(&input.bytes);
        for row in data.chunks_exact_mut(cols) {
            apply_window(row, &coeffs);
        }
        ctx.outputs[0].bytes.copy_from_slice(as_bytes(&data));
        Ok(())
    });

    reg.register("isspl.magnitude", |ctx: &mut FnThreadCtx<'_>| {
        let input = ctx.inputs.first().ok_or("needs an input")?;
        let data = from_bytes(&input.bytes);
        let out: Vec<sage_signal::Complex32> = data
            .iter()
            .map(|z| sage_signal::Complex32::new(z.norm_sqr(), 0.0))
            .collect();
        ctx.outputs[0].bytes.copy_from_slice(as_bytes(&out));
        Ok(())
    });

    reg.register("workload.bytes", |ctx: &mut FnThreadCtx<'_>| {
        // Dtype-agnostic deterministic source: every output stripe is
        // filled from a splitmix64 stream keyed on (seed, thread, port),
        // so any element type and striping produces the same bytes on
        // every backend. The fuzz corpus leans on this for non-complex
        // and oddly-striped sources `workload.matrix` cannot feed.
        let seed = ctx.param_i64("seed").unwrap_or(0) as u64;
        if ctx.outputs.is_empty() {
            return Err("workload.bytes needs an output".into());
        }
        for (oi, out) in ctx.outputs.iter_mut().enumerate() {
            let mut state = seed
                ^ (ctx.thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((oi as u64) << 17)
                ^ (u64::from(ctx.iteration) << 40);
            let mut next = move || {
                let word = rand::splitmix64(state);
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                word
            };
            for chunk in out.bytes.chunks_mut(8) {
                let word = next().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
        Ok(())
    });

    reg.register("workload.splat", |ctx: &mut FnThreadCtx<'_>| {
        // Fan-out-tolerant pass-through: the input stripe is copied into
        // every output buffer (one logical buffer per consumer), which the
        // built-in one-in-one-out `id` refuses to do.
        let input = ctx.inputs.first().ok_or("workload.splat needs an input")?;
        if ctx.outputs.is_empty() {
            return Err("workload.splat needs an output".into());
        }
        for out in ctx.outputs.iter_mut() {
            if out.bytes.len() != input.bytes.len() {
                return Err(format!(
                    "output stripe of {} bytes does not match the {}-byte input",
                    out.bytes.len(),
                    input.bytes.len()
                ));
            }
            out.bytes.copy_from_slice(&input.bytes);
        }
        Ok(())
    });

    reg.register("workload.mix", |ctx: &mut FnThreadCtx<'_>| {
        // Feedback combiner: XORs the forward input with the feedback
        // input byte-wise into every output. With the feedback arriving
        // over a `delay` arc this is the minimal stateful loop body —
        // iteration i's output depends on iteration i-delay's — used by
        // the pipeline-safety fixtures and the fuzz corpus.
        if ctx.inputs.len() < 2 {
            return Err("workload.mix needs two inputs (forward, feedback)".into());
        }
        let (fwd, fb) = (&ctx.inputs[0], &ctx.inputs[1]);
        if fwd.bytes.len() != fb.bytes.len() {
            return Err(format!(
                "feedback stripe of {} bytes does not match the {}-byte input",
                fb.bytes.len(),
                fwd.bytes.len()
            ));
        }
        for out in ctx.outputs.iter_mut() {
            if out.bytes.len() != fwd.bytes.len() {
                return Err(format!(
                    "output stripe of {} bytes does not match the {}-byte input",
                    out.bytes.len(),
                    fwd.bytes.len()
                ));
            }
            for (o, (a, b)) in out
                .bytes
                .iter_mut()
                .zip(fwd.bytes.iter().zip(fb.bytes.iter()))
            {
                *o = a ^ b;
            }
        }
        Ok(())
    });
}

/// The software shelf describing these kernels with their cost models for a
/// `size x size` workload split over `threads` threads.
pub fn isspl_shelf(size: usize) -> SoftwareShelf {
    let mut shelf = SoftwareShelf::new();
    let to_cm = |k: cost::KernelCost| CostModel::new(k.flops, k.mem_bytes);
    shelf.add(ShelfFunction::new(
        "workload.matrix",
        "synthetic sensor matrix source",
        CostModel::ZERO,
    ));
    shelf.add(ShelfFunction::new(
        "isspl.fft_rows",
        "forward FFT of each matrix row",
        to_cm(cost::fft_rows_cost(size, size)),
    ));
    shelf.add(ShelfFunction::new(
        "isspl.transpose",
        "blocked matrix transpose (corner turn core)",
        to_cm(cost::transpose_cost(size, size)),
    ));
    shelf.add(ShelfFunction::new(
        "isspl.transpose_fft_rows",
        "local transpose + row FFTs (column FFT stage)",
        to_cm(cost::transpose_cost(size, size).plus(cost::fft_rows_cost(size, size))),
    ));
    shelf.add(ShelfFunction::new(
        "isspl.transpose_ifft_rows",
        "local transpose + inverse row FFTs",
        to_cm(cost::transpose_cost(size, size).plus(cost::fft_rows_cost(size, size))),
    ));
    shelf.add(ShelfFunction::new(
        "isspl.lowpass_mask",
        "ideal low-pass mask over the 2D spectrum",
        to_cm(cost::magnitude_cost(size * size)),
    ));
    shelf.add(ShelfFunction::new(
        "isspl.window_rows",
        "Hamming window per row",
        to_cm(cost::window_cost(size * size)),
    ));
    shelf.add(ShelfFunction::new(
        "isspl.magnitude",
        "element-wise detection power",
        to_cm(cost::magnitude_cost(size * size)),
    ));
    shelf.add(ShelfFunction::new(
        "workload.bytes",
        "dtype-agnostic seeded byte source",
        CostModel::ZERO,
    ));
    shelf.add(ShelfFunction::new(
        "workload.splat",
        "fan-out pass-through (one copy per consumer)",
        to_cm(cost::magnitude_cost(size * size)),
    ));
    shelf.add(ShelfFunction::new(
        "workload.mix",
        "feedback combiner (forward XOR delayed feedback)",
        to_cm(cost::magnitude_cost(size * size)),
    ));
    shelf
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_model::Properties;
    use sage_runtime::StripePayload;

    fn invoke(reg: &Registry, name: &str, ctx: &mut FnThreadCtx<'_>) {
        reg.get(name).unwrap().invoke(ctx).unwrap();
    }

    fn stripe(shape: Vec<usize>) -> StripePayload {
        StripePayload::zeroed(shape, 8)
    }

    #[test]
    fn workload_matrix_fills_thread_stripe() {
        let mut reg = Registry::new();
        register_kernels(&mut reg);
        let mut params = Properties::new();
        params.insert("seed".into(), sage_model::PropValue::Int(5));
        let mut outputs = vec![stripe(vec![2, 8])]; // thread 1 of 4 on 8x8
        let mut ctx = FnThreadCtx {
            fn_name: "src",
            thread: 1,
            threads: 4,
            iteration: 0,
            params: &params,
            inputs: &[],
            outputs: &mut outputs,
        };
        invoke(&reg, "workload.matrix", &mut ctx);
        let data = from_bytes(&outputs[0].bytes);
        assert_eq!(data[0], workload::sample(5, 2, 0));
        assert_eq!(data[9], workload::sample(5, 3, 1));
    }

    #[test]
    fn fft_rows_matches_signal_crate() {
        let mut reg = Registry::new();
        register_kernels(&mut reg);
        let raw = workload::input_stripe(1, 8, 0, 4);
        let mut input = stripe(vec![4, 8]);
        input.bytes.copy_from_slice(as_bytes(&raw));
        let mut outputs = vec![stripe(vec![4, 8])];
        let params = Properties::new();
        let mut ctx = FnThreadCtx {
            fn_name: "fft",
            thread: 0,
            threads: 1,
            iteration: 0,
            params: &params,
            inputs: std::slice::from_ref(&input),
            outputs: &mut outputs,
        };
        invoke(&reg, "isspl.fft_rows", &mut ctx);
        let mut expect = raw;
        Fft1d::new(8, FftDirection::Forward).process_rows(&mut expect);
        assert_eq!(from_bytes(&outputs[0].bytes), expect);
    }

    #[test]
    fn transpose_kernel_checks_shapes() {
        let mut reg = Registry::new();
        register_kernels(&mut reg);
        let raw = workload::input_stripe(1, 4, 0, 2); // 2x4
        let mut input = stripe(vec![2, 4]);
        input.bytes.copy_from_slice(as_bytes(&raw));
        let mut outputs = vec![stripe(vec![4, 2])];
        let params = Properties::new();
        let mut ctx = FnThreadCtx {
            fn_name: "t",
            thread: 0,
            threads: 1,
            iteration: 0,
            params: &params,
            inputs: std::slice::from_ref(&input),
            outputs: &mut outputs,
        };
        invoke(&reg, "isspl.transpose", &mut ctx);
        let got = from_bytes(&outputs[0].bytes);
        for r in 0..2 {
            for c in 0..4 {
                assert_eq!(got[c * 2 + r], raw[r * 4 + c]);
            }
        }
        // Wrong output shape is rejected.
        let mut bad = vec![stripe(vec![2, 4])];
        let mut ctx = FnThreadCtx {
            fn_name: "t",
            thread: 0,
            threads: 1,
            iteration: 0,
            params: &params,
            inputs: std::slice::from_ref(&input),
            outputs: &mut bad,
        };
        assert!(reg
            .get("isspl.transpose")
            .unwrap()
            .invoke(&mut ctx)
            .is_err());
    }

    #[test]
    fn shelf_has_cost_models() {
        let shelf = isspl_shelf(256);
        assert!(shelf.get("isspl.fft_rows").unwrap().cost_on("CSPI").flops > 0.0);
        assert_eq!(
            shelf.get("isspl.transpose").unwrap().cost_on("*").flops,
            0.0
        );
        assert!(shelf.get("isspl.transpose").unwrap().cost_on("*").mem_bytes > 0.0);
        assert_eq!(shelf.len(), 11);
    }

    #[test]
    fn workload_mix_xors_forward_with_feedback() {
        let mut reg = Registry::new();
        register_kernels(&mut reg);
        let params = Properties::new();
        let mut fwd = stripe(vec![2, 2]);
        fwd.bytes.copy_from_slice(&[0xF0; 32]);
        let mut fb = stripe(vec![2, 2]);
        fb.bytes.copy_from_slice(&[0x0F; 32]);
        let inputs = vec![fwd, fb];
        let mut outputs = vec![stripe(vec![2, 2])];
        let mut ctx = FnThreadCtx {
            fn_name: "m",
            thread: 0,
            threads: 1,
            iteration: 0,
            params: &params,
            inputs: &inputs,
            outputs: &mut outputs,
        };
        invoke(&reg, "workload.mix", &mut ctx);
        assert!(outputs[0].bytes.iter().all(|&b| b == 0xFF));

        // A feedback stripe of the wrong size is a typed kernel error.
        let mut short = stripe(vec![2, 2]);
        short.bytes.copy_from_slice(&[0x0F; 32]);
        short.bytes.to_mut().truncate(16);
        let inputs = vec![stripe(vec![2, 2]), short];
        let mut outputs = vec![stripe(vec![2, 2])];
        let mut ctx = FnThreadCtx {
            fn_name: "m",
            thread: 0,
            threads: 1,
            iteration: 0,
            params: &params,
            inputs: &inputs,
            outputs: &mut outputs,
        };
        assert!(reg.get("workload.mix").unwrap().invoke(&mut ctx).is_err());
    }
}
