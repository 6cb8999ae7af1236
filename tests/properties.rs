//! Workspace-level property-based tests (proptest) on the core invariants:
//! striping, redistribution, FFT, transpose, collectives, and the Alter
//! reader.

use proptest::prelude::*;
use sage::alter::{parse_program, Ast, AstNode, Span};
use sage::prelude::*;
use sage_runtime::{Layout, Redistribution};
use sage_signal::complex::{as_bytes, from_bytes};
use sage_signal::{fft_1d, fft_inverse_1d, transpose, Complex32, Fft1d, FftDirection};

/// Striping specs the Designer can express for a 2-D matrix.
fn striping_strategy() -> impl Strategy<Value = Striping> {
    prop_oneof![
        Just(Striping::Replicated),
        Just(Striping::BY_ROWS),
        Just(Striping::BY_COLS),
    ]
}

/// Leaves of an s-expression tree, biased toward what the printer must not
/// lose: escapes and delimiters inside strings, negative integers, floats
/// whose display form looks like an integer.
fn atom_strategy() -> impl Strategy<Value = AstNode> {
    const CHARS: [char; 12] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '(', ')', ';', '\'',
    ];
    const SYMBOLS: [&str; 6] = ["model", "+", "-", "a.b", "x->y", "#tt"];
    prop_oneof![
        Just(AstNode::Nil),
        (0u8..2).prop_map(|b| AstNode::Bool(b == 1)),
        (-1_000_000_000_000i64..1_000_000_000_000).prop_map(AstNode::Int),
        (-4000i64..4000).prop_map(|q| AstNode::Float(q as f64 / 4.0)),
        (0u32..40).prop_map(|e| AstNode::Float(-(10f64.powi(e as i32)))),
        proptest::collection::vec(0usize..CHARS.len(), 0..8)
            .prop_map(|ix| AstNode::Str(ix.into_iter().map(|i| CHARS[i]).collect())),
        (0usize..SYMBOLS.len()).prop_map(|i| AstNode::Symbol(SYMBOLS[i].into())),
    ]
}

/// Folds leaves into a nested list: the middle third of every run becomes
/// a sub-list, so the shape varies with the length.
fn nest(atoms: &[AstNode]) -> Ast {
    let leaf = |node: &AstNode| Ast {
        node: node.clone(),
        span: Span::default(),
    };
    let third = atoms.len() / 3;
    let mut items: Vec<Ast> = atoms[..third].iter().map(leaf).collect();
    if third > 0 {
        items.push(nest(&atoms[third..2 * third]));
    }
    items.extend(atoms[2 * third..].iter().map(leaf));
    Ast {
        node: AstNode::List(items),
        span: Span::default(),
    }
}

/// `ast` with every span zeroed: equality modulo source positions.
fn without_spans(ast: &Ast) -> Ast {
    let node = match &ast.node {
        AstNode::List(items) => AstNode::List(items.iter().map(without_spans).collect()),
        leaf => leaf.clone(),
    };
    Ast {
        node,
        span: Span::default(),
    }
}

/// (rows, cols, threads) with threads dividing both dims.
fn shape_threads() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=4, 1usize..=4, 1usize..=8).prop_map(|(a, b, t)| (a * t * 2, b * t, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn striped_layouts_partition_the_payload(
        (rows, cols, threads) in shape_threads(),
        striping in prop_oneof![Just(Striping::BY_ROWS), Just(Striping::BY_COLS)],
    ) {
        let shape = [rows, cols];
        let total = rows * cols * 8;
        let mut covered = vec![0u32; total];
        for t in 0..threads {
            let l = Layout::of_thread(&shape, 8, striping, threads, t);
            prop_assert_eq!(l.len(), total / threads);
            for &(s, e) in l.runs() {
                for c in &mut covered[s..e] {
                    *c += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn redistribution_conserves_every_byte(
        (rows, cols, tp) in shape_threads(),
        tc in 1usize..=4,
        sp in prop_oneof![Just(Striping::BY_ROWS), Just(Striping::BY_COLS)],
        sc in striping_strategy(),
    ) {
        // Consumer thread count must divide the striped dimension.
        prop_assume!(rows % tc == 0 && cols % tc == 0);
        let shape = [rows, cols];
        let r = Redistribution::plan(&shape, 8, sp, tp, sc, tc);
        // Every consumer thread's layout must be fully covered by incoming
        // intervals (union over producers).
        for (j, dst) in r.dst.iter().enumerate() {
            let incoming: usize = (0..tp)
                .map(|i| r.pairs[i][j].iter().map(|(s, e)| e - s).sum::<usize>())
                .sum();
            prop_assert_eq!(incoming, dst.len(), "consumer {} under-covered", j);
        }
    }

    #[test]
    fn extract_inject_round_trips(
        (rows, cols, threads) in shape_threads(),
        payload_seed in 0u8..=255,
    ) {
        // Row-striped producer to col-striped consumer: pushing all
        // messages through extract/inject reconstructs the payload exactly.
        let shape = [rows, cols];
        let total = rows * cols * 8;
        let full: Vec<u8> = (0..total).map(|i| (i as u8).wrapping_add(payload_seed)).collect();
        let r = Redistribution::plan(&shape, 8, Striping::BY_ROWS, threads, Striping::BY_COLS, threads);
        // Producer locals are contiguous row stripes.
        let mut reconstructed = vec![0u8; total];
        let mut dst_locals: Vec<Vec<u8>> = r.dst.iter().map(|d| vec![0u8; d.len()]).collect();
        #[allow(clippy::needless_range_loop)]
        for i in 0..threads {
            let src = &r.src[i];
            let lo = src.runs()[0].0;
            let hi = src.runs().last().unwrap().1;
            let local = &full[lo..hi];
            for (j, dst_local) in dst_locals.iter_mut().enumerate() {
                let intervals = &r.pairs[i][j];
                if intervals.is_empty() { continue; }
                let msg = src.extract(local, intervals);
                r.dst[j].inject(dst_local, intervals, &msg);
            }
        }
        for (j, d) in r.dst.iter().enumerate() {
            let mut cursor = 0;
            for &(s, e) in d.runs() {
                reconstructed[s..e].copy_from_slice(&dst_locals[j][cursor..cursor + (e - s)]);
                cursor += e - s;
            }
        }
        prop_assert_eq!(reconstructed, full);
    }

    #[test]
    fn fft_round_trip(re in proptest::collection::vec(-100.0f32..100.0, 64)) {
        let input: Vec<Complex32> = re.iter().map(|&x| Complex32::new(x, -x * 0.5)).collect();
        let mut v = input.clone();
        fft_1d(&mut v);
        fft_inverse_1d(&mut v);
        let err = v.iter().zip(&input).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max);
        let scale = input.iter().map(|z| z.abs()).fold(1.0f32, f32::max);
        prop_assert!(err / scale < 1e-4, "relative error {}", err / scale);
    }

    #[test]
    fn fft_entries_agree_bit_for_bit(
        log_n in 0u32..=7,
        count in 0usize..10,
        cut in 0u32..=7,
        inverse in 0u8..2,
        seed in 0u32..1_000_000,
    ) {
        // `count` transforms of length n, given as rows and as the columns
        // of their transpose cut into row blocks: every entry point of the
        // one lane core returns the same bits.
        let n = 1usize << log_n;
        let dir = if inverse == 1 { FftDirection::Inverse } else { FftDirection::Forward };
        let plan = Fft1d::new(n, dir);
        let value = |i: usize| {
            ((i as u32 ^ seed).wrapping_mul(0x9e37_79b1) >> 8) as f32 / 65536.0 - 128.0
        };
        let rows: Vec<Complex32> = (0..count * n)
            .map(|i| Complex32::new(value(2 * i), value(2 * i + 1)))
            .collect();
        let bits = |v: &[Complex32]| {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect::<Vec<_>>()
        };

        let mut expect = rows.clone();
        for row in expect.chunks_exact_mut(n) {
            plan.process(row);
        }
        let mut in_place = rows.clone();
        plan.process_rows(&mut in_place);
        prop_assert_eq!(bits(&in_place), bits(&expect));
        let mut into = vec![Complex32::ONE; rows.len()];
        plan.process_rows_into(&rows, &mut into);
        prop_assert_eq!(bits(&into), bits(&expect));

        let mut matrix = vec![Complex32::ZERO; rows.len()];
        transpose(&rows, &mut matrix, count, n);
        let block = (n >> (cut % (log_n + 1))) * count;
        let blocks: Vec<&[Complex32]> = if block == 0 {
            vec![]
        } else {
            matrix.chunks(block).collect()
        };
        let mut cols = vec![Complex32::ONE; rows.len()];
        plan.process_columns_into(&blocks, &mut cols);
        prop_assert_eq!(bits(&cols), bits(&expect));
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..12, cols in 1usize..12, seed in 0u8..=255) {
        let data: Vec<Complex32> = (0..rows * cols)
            .map(|i| Complex32::new((i as u8 ^ seed) as f32, i as f32))
            .collect();
        let mut once = vec![Complex32::ZERO; rows * cols];
        let mut twice = vec![Complex32::ZERO; rows * cols];
        transpose(&data, &mut once, rows, cols);
        transpose(&once, &mut twice, cols, rows);
        prop_assert_eq!(twice, data);
    }

    #[test]
    fn complex_bytes_round_trip(vals in proptest::collection::vec((-1e6f32..1e6, -1e6f32..1e6), 0..64)) {
        let data: Vec<Complex32> = vals.iter().map(|&(r, i)| Complex32::new(r, i)).collect();
        prop_assert_eq!(from_bytes(as_bytes(&data)), data);
    }

    #[test]
    fn alter_print_parse_round_trips(atoms in proptest::collection::vec(atom_strategy(), 0..40)) {
        let tree = nest(&atoms);
        let written = format!("{tree:#}");
        let back = parse_program(&written).unwrap();
        prop_assert_eq!(back.len(), 1, "{}", written);
        prop_assert_eq!(without_spans(&back[0]), tree, "{}", written);
        // Spans index the written text: the whole form, and each string
        // literal including its quotes.
        prop_assert_eq!(back[0].span, Span::new(0, written.len()));
        for item in back[0].as_list().unwrap() {
            if item.as_str().is_some() {
                prop_assert!(written[item.span.start..item.span.end].starts_with('"'));
            }
        }
    }

    #[test]
    fn datatype_stripe_bytes_consistent(
        rows in 1usize..64,
        cols in 1usize..64,
        parts in 1usize..16,
    ) {
        let dt = DataType::complex_matrix(rows, cols);
        if dt.stripeable(0, parts) {
            prop_assert_eq!(dt.stripe_bytes(0, parts) * parts, dt.size_bytes());
        }
        if dt.stripeable(1, parts) {
            prop_assert_eq!(dt.stripe_bytes(1, parts) * parts, dt.size_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn alltoall_is_a_transpose_for_any_size(n in 1usize..7, payload in 1usize..64) {
        use sage::fabric::{Cluster, LinkSpec, MachineSpec, NodeSpec, Payload};
        use sage::mpi::Communicator;
        let machine = MachineSpec::uniform(
            "p",
            n,
            NodeSpec { flops_per_sec: 1e9, mem_bw: 1e9 },
            LinkSpec { bandwidth: 1e8, latency: 1e-6 },
        );
        let cluster = Cluster::new(machine, TimePolicy::Virtual);
        cluster.run(|ctx| {
            let me = ctx.id();
            let n = ctx.nodes();
            let mut comm = Communicator::new(ctx);
            let blocks: Vec<Payload> = (0..n)
                .map(|d| Payload::from_vec(vec![(me * 31 + d) as u8; payload]))
                .collect();
            let out = comm.try_alltoall(&blocks).expect("fault-free");
            for (src, b) in out.iter().enumerate() {
                assert_eq!(b, &vec![(src * 31 + me) as u8; payload]);
            }
        });
    }
}
