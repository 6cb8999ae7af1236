//! Seeded model-corpus generation.
//!
//! Two deterministic builders — [`layered_model`] and [`chain_model`] —
//! are the shapes the property suites (`tests/lint_props.rs`,
//! `tests/check_props.rs`) used to carry privately; they live here so the
//! tests, the CLI fuzzer, and the soak harness all draw from one
//! generator. On top of them, [`gen_model`] derives a whole random model
//! from a single `u64` seed: layered DAGs with replicated and striped
//! ports, fan-out, mixed element types, varied striping dimensions, 2-D
//! and 3-D extents, and varied thread/node counts.
//!
//! Every generated model is emitted as real `.sexpr` source
//! ([`GeneratedModel::source`]) and flows through the same
//! parse → lint → check → codegen front door as the committed example
//! models — the generator takes no shortcuts around the toolchain.

use rand::rngs::StdRng;
use rand::{splitmix64, Rng, SeedableRng};
use sage_core::model_io;
use sage_model::{
    AppGraph, Block, BlockId, BlockKind, CostModel, DataType, Port, PropValue, ScalarKind, Striping,
};

/// The seed of corpus entry `index` under master seed `master`.
pub fn derive_seed(master: u64, index: usize) -> u64 {
    splitmix64(master ^ splitmix64(index as u64 ^ 0x5eed))
}

/// One middle layer of a layered DAG: per-block (threads, input striping,
/// output striping).
pub type Layer = Vec<(usize, Striping, Striping)>;

/// One middle stage of a single chain: (threads, input striping, output
/// striping).
pub type Stage = (usize, Striping, Striping);

/// A layered DAG: one source, `layers` of pass-through blocks, and a sink
/// with one input port per final-layer block. Block `j` of each layer
/// reads from block `j % prev_width` of the previous layer, so narrower
/// layers fan out into wider ones (one logical buffer per consumer) —
/// which is why the middle blocks run `kernel` (e.g. `workload.splat`,
/// which copies its input into every output) rather than the built-in
/// one-in-one-out `id`.
pub fn layered_model(
    dtype: &DataType,
    src_threads: usize,
    src_striping: Striping,
    layers: &[Layer],
    sink_threads: usize,
    sink_striping: Striping,
    kernel: &str,
) -> AppGraph {
    let mut g = AppGraph::new("random_layered");
    let src = g.add_block(Block::source_threaded(
        "src",
        src_threads,
        vec![Port::output("out", dtype.clone(), src_striping)],
    ));
    let mut prev: Vec<BlockId> = vec![src];
    for (li, layer) in layers.iter().enumerate() {
        let mut current = Vec::with_capacity(layer.len());
        for (bi, &(threads, in_striping, out_striping)) in layer.iter().enumerate() {
            let b = g.add_block(Block::primitive(
                format!("l{li}b{bi}"),
                kernel,
                threads,
                CostModel::new(64.0, 0.0),
                vec![
                    Port::input("in", dtype.clone(), in_striping),
                    Port::output("out", dtype.clone(), out_striping),
                ],
            ));
            g.connect(prev[bi % prev.len()], "out", b, "in").unwrap();
            current.push(b);
        }
        prev = current;
    }
    let sink_ports: Vec<Port> = (0..prev.len())
        .map(|i| Port::input(format!("in{i}"), dtype.clone(), sink_striping))
        .collect();
    let snk = g.add_block(Block::sink_threaded("snk", sink_threads, sink_ports));
    for (i, &b) in prev.iter().enumerate() {
        g.connect(b, "out", snk, &format!("in{i}")).unwrap();
    }
    g
}

/// A single-chain pipeline: `workload.matrix` source (row-striped, as its
/// kernel contract requires), `id` pass-through stages with the given
/// stripings — each boundary a potential corner turn — and a sink. Only
/// kernels the `sage fleet` daemon registers, so every chain is
/// runnable as a real distributed job.
pub fn chain_model(
    dtype: &DataType,
    seed: u32,
    src_threads: usize,
    stages: &[Stage],
    sink_threads: usize,
    sink_striping: Striping,
) -> AppGraph {
    let mut g = AppGraph::new("random_chain");
    let src = g.add_block(
        Block::source_threaded(
            "src",
            src_threads,
            vec![Port::output("out", dtype.clone(), Striping::BY_ROWS)],
        )
        .with_prop("kernel", PropValue::Str("workload.matrix".into()))
        .with_prop("seed", PropValue::Int(i64::from(seed))),
    );
    let mut prev = src;
    for (i, &(threads, in_striping, out_striping)) in stages.iter().enumerate() {
        let b = g.add_block(Block::primitive(
            format!("stage{i}"),
            "id",
            threads,
            CostModel::new(64.0, 0.0),
            vec![
                Port::input("in", dtype.clone(), in_striping),
                Port::output("out", dtype.clone(), out_striping),
            ],
        ));
        g.connect(prev, "out", b, "in").unwrap();
        prev = b;
    }
    let snk = g.add_block(Block::sink_threaded(
        "snk",
        sink_threads,
        vec![Port::input("in", dtype.clone(), sink_striping)],
    ));
    g.connect(prev, "out", snk, "in").unwrap();
    g
}

/// Most middle layers (or chain stages) in a generated model.
const MAX_LAYERS: usize = 3;

/// Most blocks per layer (widths > 1 create fan-out).
const MAX_WIDTH: usize = 2;

/// Largest node count to target (clamped to the narrowest block so no rank
/// idles).
const MAX_NODES: usize = 4;

/// Seeded-defect rates for [`gen_model`]; the shape envelope is fixed
/// (`MAX_LAYERS`, `MAX_WIDTH`, `MAX_NODES`).
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Probability of deliberately emitting a kernel-contract violation
    /// (a model `sage check` must reject *and* that must also fail at run
    /// time) — the corpus' probe of the static/dynamic agreement.
    pub violation_rate: f64,
    /// Probability of deliberately emitting an unordered fan-in race: a
    /// second generator writing the sink's first port with nothing
    /// ordering it against the wired writer. The race pass must reject
    /// it (`SAGE070`) *and* the vector-clock detector must trip when the
    /// gate is bypassed.
    pub race_rate: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            violation_rate: 0.12,
            race_rate: 0.10,
        }
    }
}

/// A generated corpus entry: the model, its emitted source, and the node
/// count it targets.
#[derive(Clone, Debug)]
pub struct GeneratedModel {
    /// The seed this model derives from (same seed ⇒ same model).
    pub seed: u64,
    /// Node count the differential runs target.
    pub nodes: usize,
    /// The in-memory model.
    pub app: AppGraph,
    /// The model as `.sexpr` source — what actually flows through the
    /// front door.
    pub source: String,
    /// `true` when the generator deliberately broke a kernel contract.
    pub seeded_violation: bool,
    /// `true` when the generator deliberately seeded an unordered
    /// overlapping fan-in (a data race the toolchain must catch twice).
    pub seeded_race: bool,
}

/// Power-of-two thread counts: extents of 8/16 stripe evenly under all of
/// them, along any dimension.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

fn pick_striping(rng: &mut StdRng, dims: usize, allow_replicated: bool) -> Striping {
    let n = dims + usize::from(allow_replicated);
    let k = rng.random_range(0..n);
    if k < dims {
        Striping::Striped { dim: k }
    } else {
        Striping::Replicated
    }
}

/// Derives a whole random model from `seed`. Deterministic: the same seed
/// and config always produce byte-identical source.
pub fn gen_model(seed: u64, cfg: &GenConfig) -> GeneratedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let elem = match rng.random_range(0..4u32) {
        0 => DataType::Complex,
        1 => DataType::Scalar(ScalarKind::F32),
        2 => DataType::Scalar(ScalarKind::I16),
        _ => DataType::Scalar(ScalarKind::U8),
    };
    let dims = if rng.random_bool(0.25) { 3 } else { 2 };
    let shape: Vec<usize> = (0..dims).map(|_| pick(&mut rng, &[8usize, 16])).collect();
    let dtype = DataType::Array {
        elem: Box::new(elem.clone()),
        shape,
    };
    let violation = rng.random_bool(cfg.violation_rate);
    let race = !violation && rng.random_bool(cfg.race_rate);

    // Chain flavor needs a complex matrix for its `workload.matrix`
    // source; everything else takes the layered flavor with the
    // dtype-agnostic `workload.bytes` source. Race models are always
    // layered: the racing writer fans into the sink's first port.
    let chain_flavor = elem == DataType::Complex && dims == 2 && !race && rng.random_bool(0.5);

    let mut app = if chain_flavor {
        let src_threads = pick(&mut rng, &THREADS);
        let sink_threads = pick(&mut rng, &THREADS);
        let n_stages = rng.random_range(1..=MAX_LAYERS);
        let mut stages: Vec<Stage> = (0..n_stages)
            .map(|_| {
                let t = pick(&mut rng, &THREADS);
                // `id` preserves local bytes only when both sides divide
                // the datum the same way: either both striped (equal
                // division ⇒ equal bytes) or both replicated.
                if rng.random_bool(0.2) {
                    (t, Striping::Replicated, Striping::Replicated)
                } else {
                    (
                        t,
                        pick_striping(&mut rng, dims, false),
                        pick_striping(&mut rng, dims, false),
                    )
                }
            })
            .collect();
        if violation {
            // Deliberate contract break: replicated in, striped out — the
            // local byte counts differ whenever the stage is threaded, so
            // `sage check` must reject it (SAGE054) and the built-in `id`
            // kernel must error at run time.
            let k = rng.random_range(0..stages.len());
            let t = pick(&mut rng, &[2usize, 4, 8]);
            stages[k] = (t, Striping::Replicated, Striping::Striped { dim: 0 });
        }
        let sink_striping = pick_striping(&mut rng, dims, true);
        let chain_seed = rng.random_range(1..10_000u32);
        chain_model(
            &dtype,
            chain_seed,
            src_threads,
            &stages,
            sink_threads,
            sink_striping,
        )
    } else {
        let src_threads = pick(&mut rng, &THREADS);
        let sink_threads = pick(&mut rng, &THREADS);
        let n_layers = rng.random_range(1..=MAX_LAYERS);
        let mut layers: Vec<Layer> = (0..n_layers)
            .map(|_| {
                let width = rng.random_range(1..=MAX_WIDTH);
                (0..width)
                    .map(|_| {
                        let t = pick(&mut rng, &THREADS);
                        if rng.random_bool(0.2) {
                            (t, Striping::Replicated, Striping::Replicated)
                        } else {
                            (
                                t,
                                pick_striping(&mut rng, dims, false),
                                pick_striping(&mut rng, dims, false),
                            )
                        }
                    })
                    .collect()
            })
            .collect();
        if violation {
            // Same deliberate break, through `workload.splat`'s contract.
            let li = rng.random_range(0..layers.len());
            let bi = rng.random_range(0..layers[li].len());
            let t = pick(&mut rng, &[2usize, 4, 8]);
            layers[li][bi] = (t, Striping::Replicated, Striping::Striped { dim: 0 });
        }
        let src_striping = pick_striping(&mut rng, dims, false);
        let sink_striping = pick_striping(&mut rng, dims, true);
        let mut g = layered_model(
            &dtype,
            src_threads,
            src_striping,
            &layers,
            sink_threads,
            sink_striping,
            "workload.splat",
        );
        // The layered source feeds any dtype/striping via the seeded byte
        // kernel (the default `source.zero` would also run, but all-zero
        // payloads make checksum comparison vacuous).
        let src_id = g.block_by_name("src").unwrap();
        let src_seed = rng.random_range(1..10_000i64);
        let b = g.block_mut(src_id);
        b.props
            .insert("kernel".into(), PropValue::Str("workload.bytes".into()));
        b.props.insert("seed".into(), PropValue::Int(src_seed));
        // Feedback flavor: rewrite one middle block into a `workload.mix`
        // loop closed through a one-iteration `delay` block, exercising
        // the pipeline-safety pass (`SAGE061` caps the model at depth 1)
        // and the delay-arc executor path. Violation-free models only, so
        // the loop stays contract-clean.
        if !violation && !race && rng.random_bool(0.3) {
            let li = rng.random_range(0..layers.len());
            let bi = rng.random_range(0..layers[li].len());
            let (t, in_striping, _) = layers[li][bi];
            let m = g.block_by_name(&format!("l{li}b{bi}")).unwrap();
            let b = g.block_mut(m);
            if let BlockKind::Primitive { function, .. } = &mut b.kind {
                *function = "workload.mix".into();
            }
            // The feedback port mirrors the forward input's striping so
            // the mix contract (equal stripe bytes) holds by construction.
            b.ports.push(Port::input("fb", dtype.clone(), in_striping));
            let fbd = g.add_block(
                Block::primitive(
                    "fbd",
                    "id",
                    t,
                    CostModel::new(64.0, 0.0),
                    vec![
                        Port::input("in", dtype.clone(), in_striping),
                        Port::output("out", dtype.clone(), in_striping),
                    ],
                )
                .with_prop("delay", PropValue::Int(1)),
            );
            g.connect(m, "out", fbd, "in").unwrap();
            g.connect(fbd, "out", m, "fb").unwrap();
        }
        // Race flavor: a second, independently seeded generator fans into
        // the sink's first port. Its stripe axis deliberately misaligns
        // with the wired writer's, so at least one cross-node pair of
        // overlapping writes has no happens-before ordering.
        if race {
            let (co_threads, _, co_out) = layers[layers.len() - 1][0];
            let dim = match co_out {
                Striping::Striped { dim } if co_threads >= 2 => (dim + 1) % dims,
                _ => 0,
            };
            let racer_seed = rng.random_range(1..10_000i64);
            let racer = g.add_block(
                Block::source_threaded(
                    "racer",
                    2,
                    vec![Port::output(
                        "out",
                        dtype.clone(),
                        Striping::Striped { dim },
                    )],
                )
                .with_prop("kernel", PropValue::Str("workload.bytes".into()))
                .with_prop("seed", PropValue::Int(racer_seed)),
            );
            let snk = g.block_by_name("snk").unwrap();
            g.connect(racer, "out", snk, "in0").unwrap();
        }
        g
    };

    // No idle ranks: clamp the machine to the narrowest block. Race
    // models need at least two nodes — on one node the schedule walk
    // orders everything and the seeded race vanishes.
    let min_threads = app.blocks().iter().map(Block::threads).min().unwrap_or(1);
    let nodes = pick(&mut rng, &[1usize, 2, MAX_NODES])
        .min(min_threads)
        .max(if race { 2 } else { 1 });

    app.name = format!("fuzz_{seed:016x}");
    let source = model_io::model_to_sexpr(&app);
    GeneratedModel {
        seed,
        nodes,
        app,
        source,
        seeded_violation: violation,
        seeded_race: race,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_source() {
        let cfg = GenConfig::default();
        for s in 0..40u64 {
            let a = gen_model(derive_seed(42, s as usize), &cfg);
            let b = gen_model(derive_seed(42, s as usize), &cfg);
            assert_eq!(a.source, b.source);
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn different_seeds_vary() {
        let cfg = GenConfig::default();
        let sources: std::collections::HashSet<String> = (0..30usize)
            .map(|i| gen_model(derive_seed(7, i), &cfg).source)
            .collect();
        assert!(sources.len() > 20, "only {} distinct models", sources.len());
    }

    #[test]
    fn generated_source_round_trips() {
        let cfg = GenConfig::default();
        for i in 0..20usize {
            let m = gen_model(derive_seed(3, i), &cfg);
            let back = model_io::model_from_sexpr(&m.source).expect("parses");
            assert_eq!(model_io::model_to_sexpr(&back), m.source);
        }
    }
}
