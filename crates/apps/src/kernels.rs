//! ISSPL-like shelf kernels registered with the run-time's function
//! [`Registry`].

use crate::workload;
use sage_runtime::{FnThreadCtx, Registry};
use sage_signal::complex::{view, with_view_mut};
use sage_signal::fft::{Fft1d, FftDirection};
use sage_signal::transpose::{transpose_blocked, DEFAULT_BLOCK};
use sage_signal::window::{apply_window, window_coefficients, WindowKind};
use sage_signal::Complex32;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Tables shared by the kernels across invocations (the 10x100-iteration
/// benchmark loops of the paper must not rebuild twiddle or window tables).
struct PlanCache {
    plans: Mutex<HashMap<(usize, bool), Arc<Fft1d>>>,
    /// Hamming coefficients by row length.
    windows: Mutex<HashMap<usize, Arc<Vec<f32>>>>,
}

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            plans: Mutex::new(HashMap::new()),
            windows: Mutex::new(HashMap::new()),
        }
    }

    fn get(&self, n: usize) -> Arc<Fft1d> {
        self.get_dir(n, FftDirection::Forward)
    }

    fn get_dir(&self, n: usize, dir: FftDirection) -> Arc<Fft1d> {
        let inverse = dir == FftDirection::Inverse;
        let mut map = self.plans.lock().expect("plan cache poisoned");
        map.entry((n, inverse))
            .or_insert_with(|| Arc::new(Fft1d::new(n, dir)))
            .clone()
    }

    fn hamming(&self, n: usize) -> Arc<Vec<f32>> {
        let mut map = self.windows.lock().expect("plan cache poisoned");
        map.entry(n)
            .or_insert_with(|| Arc::new(window_coefficients(WindowKind::Hamming, n)))
            .clone()
    }
}

/// The in-place form of a one-in, one-out kernel: copies input 0 into
/// output 0 (the only pass over the stripe besides `f`'s own) and runs `f`
/// on the output's samples.
fn in_place(ctx: &mut FnThreadCtx<'_>, f: impl FnOnce(&mut [Complex32])) {
    let out = &mut ctx.outputs[0];
    out.bytes.copy_from_slice(&ctx.inputs[0].bytes);
    with_view_mut(&mut out.bytes, f);
}

/// The out-of-place form of a one-in, one-out kernel: runs `f` from input
/// 0's samples, read where they lie, into output 0's.
fn mapped(
    ctx: &mut FnThreadCtx<'_>,
    f: impl FnOnce(&[Complex32], &mut [Complex32]),
) -> Result<(), String> {
    let input = ctx.inputs.first().ok_or("needs an input")?;
    with_view_mut(&mut ctx.outputs[0].bytes, |out| f(&view(&input.bytes), out));
    Ok(())
}

/// The `[r, c]` shape of input 0, which must be a matrix stripe.
fn matrix_shape(ctx: &FnThreadCtx<'_>) -> Result<(usize, usize), String> {
    let input = ctx.inputs.first().ok_or("needs an input")?;
    match input.shape[..] {
        [r, cdim] => Ok((r, cdim)),
        _ => Err(format!("expected a matrix stripe, got {:?}", input.shape)),
    }
}

/// Registers every application kernel used by the benchmark models.
///
/// Every kernel computes on the stripes it is handed: inputs are read
/// through [`view`] and results are written directly into
/// `ctx.outputs[i].bytes`, with no stripe-sized temporary.
///
/// * `workload.matrix` — source kernel: fills its output stripe with the
///   deterministic input samples; needs params `seed` and `size` and a
///   row-striped output;
/// * `isspl.fft_rows` — forward FFT of every row of the local stripe, read
///   from the input by the transform's own loads;
/// * `isspl.transpose` — local tile transpose (`[r, c]` → `[c, r]`);
/// * `isspl.transpose_fft_rows` — fused corner-turn-consumer kernel: FFTs
///   the columns of the local `[R, C/N]` column stripe into the rows of its
///   `[C/N, R]` output; the transform's gather does the turn, so no
///   transposed copy is made (`isspl.transpose_ifft_rows` likewise,
///   inverse);
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
    let cache = Arc::new(PlanCache::new());

    reg.register("workload.matrix", |ctx: &mut FnThreadCtx<'_>| {
        let seed = ctx.param_i64("seed").unwrap_or(0) as u64;
        let out = ctx
            .outputs
            .first_mut()
            .ok_or("workload.matrix needs an output")?;
        if out.shape.len() != 2 {
            return Err(format!("expected a matrix stripe, got {:?}", out.shape));
        }
        if out.elem_bytes != std::mem::size_of::<Complex32>() {
            return Err(format!(
                "expected complex samples, got {}-byte elements",
                out.elem_bytes
            ));
        }
        let (rows, cols) = (out.shape[0], out.shape[1]);
        // Row-striped output: global row offset = thread * local rows.
        let row0 = ctx.thread * rows;
        with_view_mut(&mut out.bytes, |stripe| {
            workload::fill_stripe(seed, cols, row0, stripe)
        });
        Ok(())
    });

    let c = cache.clone();
    reg.register("isspl.fft_rows", move |ctx: &mut FnThreadCtx<'_>| {
        let input = ctx.inputs.first().ok_or("isspl.fft_rows needs an input")?;
        let plan = c.get(*input.shape.last().ok_or("scalar input")?);
        mapped(ctx, |src, out| plan.process_rows_into(src, out))
    });

    reg.register("isspl.transpose", |ctx: &mut FnThreadCtx<'_>| {
        let (r, cdim) = matrix_shape(ctx)?;
        let out = &ctx.outputs[0];
        if out.shape != [cdim, r] {
            return Err(format!(
                "transpose output shape {:?} does not match [{cdim}, {r}]",
                out.shape
            ));
        }
        mapped(ctx, |src, out| {
            transpose_blocked(src, out, r, cdim, DEFAULT_BLOCK)
        })
    });

    let c = cache.clone();
    reg.register(
        "isspl.transpose_fft_rows",
        move |ctx: &mut FnThreadCtx<'_>| {
            let plan = c.get(matrix_shape(ctx)?.0);
            mapped(ctx, |src, out| plan.process_columns_into(&[src], out))
        },
    );

    let c = cache.clone();
    reg.register(
        "isspl.transpose_ifft_rows",
        move |ctx: &mut FnThreadCtx<'_>| {
            let plan = c.get_dir(matrix_shape(ctx)?.0, FftDirection::Inverse);
            mapped(ctx, |src, out| plan.process_columns_into(&[src], out))
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
        in_place(ctx, |out| {
            for lr in 0..rows {
                let kc = kc0 + lr;
                let kc_fold = kc.min(kc_total - kc);
                for kr in 0..cols {
                    let kr_fold = kr.min(kr_total - kr);
                    if kc_fold > radius || kr_fold > radius {
                        out[lr * cols + kr] = Complex32::ZERO;
                    }
                }
            }
        });
        Ok(())
    });

    let c = cache.clone();
    reg.register("isspl.window_rows", move |ctx: &mut FnThreadCtx<'_>| {
        let input = ctx.inputs.first().ok_or("needs an input")?;
        let cols = *input.shape.last().ok_or("scalar input")?;
        let coeffs = c.hamming(cols);
        in_place(ctx, |data| {
            for row in data.chunks_exact_mut(cols) {
                apply_window(row, &coeffs);
            }
        });
        Ok(())
    });

    reg.register("isspl.magnitude", |ctx: &mut FnThreadCtx<'_>| {
        ctx.inputs.first().ok_or("needs an input")?;
        in_place(ctx, |data| {
            for z in data {
                *z = Complex32::new(z.norm_sqr(), 0.0);
            }
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use sage_model::Properties;
    use sage_runtime::StripePayload;
    use sage_signal::complex::{as_bytes, from_bytes};

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

    /// The kernels' bodies as they were before they computed in place
    /// (copy in, compute in a temporary, copy out), kept as the reference
    /// the rewritten ones must match bit for bit.
    fn reference(name: &str, ctx: &FnThreadCtx<'_>) -> Vec<Complex32> {
        let input = ctx.inputs.first();
        let shape = input.map_or(&ctx.outputs[0].shape, |i| &i.shape);
        let (r, cdim) = (shape[0], shape[1]);
        let transposed = || {
            let data = from_bytes(&input.unwrap().bytes);
            let mut t = vec![Complex32::ZERO; r * cdim];
            sage_signal::transpose(&data, &mut t, r, cdim);
            t
        };
        match name {
            "workload.matrix" => {
                let seed = ctx.param_i64("seed").unwrap_or(0) as u64;
                let mut v = Vec::with_capacity(r * cdim);
                for row in ctx.thread * r..ctx.thread * r + r {
                    for col in 0..cdim {
                        v.push(workload::sample(seed, row, col));
                    }
                }
                v
            }
            "isspl.fft_rows" => {
                let mut data = from_bytes(&input.unwrap().bytes);
                Fft1d::new(cdim, FftDirection::Forward).process_rows(&mut data);
                data
            }
            "isspl.transpose" => transposed(),
            "isspl.transpose_fft_rows" => {
                let mut t = transposed();
                Fft1d::new(r, FftDirection::Forward).process_rows(&mut t);
                t
            }
            "isspl.transpose_ifft_rows" => {
                let mut t = transposed();
                Fft1d::new(r, FftDirection::Inverse).process_rows(&mut t);
                t
            }
            "isspl.lowpass_mask" => {
                let radius = ctx.param_i64("radius").unwrap_or(8) as usize;
                let (kc_total, kc0) = (r * ctx.threads, ctx.thread * r);
                let mut out = from_bytes(&input.unwrap().bytes);
                for lr in 0..r {
                    let kc = kc0 + lr;
                    let kc_fold = kc.min(kc_total - kc);
                    for kr in 0..cdim {
                        let kr_fold = kr.min(cdim - kr);
                        if kc_fold > radius || kr_fold > radius {
                            out[lr * cdim + kr] = Complex32::ZERO;
                        }
                    }
                }
                out
            }
            "isspl.window_rows" => {
                let coeffs = window_coefficients(WindowKind::Hamming, cdim);
                let mut data = from_bytes(&input.unwrap().bytes);
                for row in data.chunks_exact_mut(cdim) {
                    apply_window(row, &coeffs);
                }
                data
            }
            "isspl.magnitude" => from_bytes(&input.unwrap().bytes)
                .iter()
                .map(|z| Complex32::new(z.norm_sqr(), 0.0))
                .collect(),
            other => panic!("no reference for {other}"),
        }
    }

    #[test]
    fn in_place_kernels_match_their_copying_references_bit_for_bit() {
        let mut reg = Registry::new();
        register_kernels(&mut reg);
        let mut params = Properties::new();
        params.insert("seed".into(), sage_model::PropValue::Int(11));
        params.insert("radius".into(), sage_model::PropValue::Int(3));
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            rand::splitmix64(state)
        };
        for (name, has_input, turns) in [
            ("workload.matrix", false, false),
            ("isspl.fft_rows", true, false),
            ("isspl.transpose", true, true),
            ("isspl.transpose_fft_rows", true, true),
            ("isspl.transpose_ifft_rows", true, true),
            ("isspl.lowpass_mask", true, false),
            ("isspl.window_rows", true, false),
            ("isspl.magnitude", true, false),
        ] {
            // Non-square stripes, wider than one transpose tile, run twice
            // so the second pass reads the cached plans and window table;
            // then stripes whose transforms do not fill the FFT's four
            // lanes: the beamformer's 2-row `beams` stripe, and 6 and 3
            // rows or turned rows.
            let shapes = [
                (8, 64),
                (64, 16),
                (8, 64),
                (32, 2),
                (6, 32),
                (3, 8),
                (32, 6),
                (8, 3),
            ];
            for (r, cdim) in shapes {
                let length = if turns { r } else { cdim };
                if name.contains("fft") && !usize::is_power_of_two(length) {
                    continue;
                }
                let mut input = stripe(vec![r, cdim]);
                for chunk in input.bytes.chunks_mut(4) {
                    // Random finite floats: the exponent is kept mid-range.
                    let exponent = 0x7e + (next() as u32 % 3);
                    let bits = (next() as u32 & 0x807f_ffff) | (exponent << 23);
                    chunk.copy_from_slice(&bits.to_le_bytes());
                }
                let out_shape = if turns { vec![cdim, r] } else { vec![r, cdim] };
                let inputs = if has_input { vec![input] } else { vec![] };
                // The executor hands outputs over zeroed; a kernel must not
                // depend on it, so the test hands them over dirty.
                let mut outputs = vec![stripe(out_shape)];
                outputs[0].bytes.fill(0xFF);
                let mut ctx = FnThreadCtx {
                    fn_name: "k",
                    thread: 1,
                    threads: 2,
                    iteration: 0,
                    params: &params,
                    inputs: &inputs,
                    outputs: &mut outputs,
                };
                let expect = reference(name, &ctx);
                invoke(&reg, name, &mut ctx);
                assert_eq!(
                    &outputs[0].bytes[..],
                    as_bytes(&expect),
                    "{name} on a {r}x{cdim} stripe"
                );
            }
        }
    }
}
