//! Designer model persistence: save/load application models as
//! Alter-syntax s-expression text — the stand-in for SAGE's DoME model
//! files, read through `sage-alter`'s spanned tree.

use sage_alter::{parse_program, AlterError, Ast, AstNode};
use sage_model::{
    AppGraph, Block, BlockKind, CostModel, DataType, Direction, Port, PropValue, ScalarKind,
    Striping,
};
use std::fmt::Write;

/// Errors raised while reading a model file.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelIoError(pub String);

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model file error: {}", self.0)
    }
}

impl std::error::Error for ModelIoError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ModelIoError> {
    Err(ModelIoError(msg.into()))
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn type_sexpr(dt: &DataType) -> String {
    match dt {
        DataType::Scalar(k) => format!("(scalar {})", format!("{k:?}").to_lowercase()),
        DataType::Complex => "(complex)".to_string(),
        DataType::Array { elem, shape } => {
            let dims: Vec<String> = shape.iter().map(|d| d.to_string()).collect();
            format!("(array {} {})", type_sexpr(elem), dims.join(" "))
        }
        DataType::Record(fields) => {
            let fs: Vec<String> = fields
                .iter()
                .map(|(n, t)| format!("(field {} {})", quote(n), type_sexpr(t)))
                .collect();
            format!("(record {})", fs.join(" "))
        }
    }
}

fn striping_sexpr(s: Striping) -> String {
    match s {
        Striping::Replicated => "replicated".to_string(),
        Striping::Striped { dim } => format!("(striped {dim})"),
    }
}

fn props_sexpr(props: &sage_model::Properties) -> String {
    if props.is_empty() {
        return String::new();
    }
    let mut s = String::from("\n    (props");
    for (k, v) in props {
        let val = match v {
            PropValue::Str(x) => quote(x),
            PropValue::Int(x) => x.to_string(),
            PropValue::Float(x) => format!("{x:?}"),
            PropValue::Bool(x) => if *x { "#t" } else { "#f" }.to_string(),
        };
        let _ = write!(s, " ({} {})", quote(k), val);
    }
    s.push(')');
    s
}

fn block_sexpr(b: &Block, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let kind = match &b.kind {
        BlockKind::Source { threads } => format!("(source {threads})"),
        BlockKind::Sink { threads } => format!("(sink {threads})"),
        BlockKind::Primitive {
            function,
            threads,
            cost,
        } => format!(
            "(primitive {} {threads} (cost {:?} {:?}))",
            quote(function),
            cost.flops,
            cost.mem_bytes
        ),
        BlockKind::Hierarchical { subgraph } => {
            format!(
                "(hierarchical\n{})",
                model_sexpr_indented(subgraph, indent + 4)
            )
        }
    };
    let mut s = format!("{pad}(block {} {kind}", quote(&b.name));
    for p in &b.ports {
        let dir = match p.direction {
            Direction::In => "in",
            Direction::Out => "out",
        };
        let _ = write!(
            s,
            "\n{pad}  (port {dir} {} {} {})",
            quote(&p.name),
            type_sexpr(&p.data_type),
            striping_sexpr(p.striping)
        );
    }
    s.push_str(&props_sexpr(&b.props));
    s.push(')');
    s
}

fn model_sexpr_indented(app: &AppGraph, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let mut s = format!("{pad}(model {}", quote(&app.name));
    s.push_str(&props_sexpr(&app.props));
    for b in app.blocks() {
        s.push('\n');
        s.push_str(&block_sexpr(b, indent + 2));
    }
    for c in app.connections() {
        let from_b = &app.blocks()[c.from.block.index()];
        let to_b = &app.blocks()[c.to.block.index()];
        let _ = write!(
            s,
            "\n{pad}  (connect {} {} {} {})",
            quote(&from_b.name),
            quote(&from_b.ports[c.from.port].name),
            quote(&to_b.name),
            quote(&to_b.ports[c.to.port].name)
        );
    }
    s.push(')');
    s
}

/// Serializes an application model (including nested hierarchy) to
/// s-expression text.
pub fn model_to_sexpr(app: &AppGraph) -> String {
    let mut s = String::from("; SAGE Designer model file\n");
    s.push_str(&model_sexpr_indented(app, 0));
    s.push('\n');
    s
}

// ---------------------------------------------------------------- reading

fn as_sym<'a>(v: &'a Ast, what: &str) -> Result<&'a str, ModelIoError> {
    v.as_symbol()
        .ok_or_else(|| ModelIoError(format!("expected {what}, got {v}")))
}

fn as_str(v: &Ast, what: &str) -> Result<String, ModelIoError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| ModelIoError(format!("expected {what} string, got {v}")))
}

fn as_usize(v: &Ast, what: &str) -> Result<usize, ModelIoError> {
    v.as_i64()
        .map(|i| i as usize)
        .ok_or_else(|| ModelIoError(format!("expected {what} integer, got {v}")))
}

fn parse_type(v: &Ast) -> Result<DataType, ModelIoError> {
    let items = v
        .as_list()
        .ok_or_else(|| ModelIoError(format!("bad type form {v}")))?;
    match items.first().map(|h| as_sym(h, "type head")).transpose()? {
        Some("complex") => Ok(DataType::Complex),
        Some("scalar") => {
            let k = as_sym(
                items.get(1).ok_or(ModelIoError("scalar kind".into()))?,
                "kind",
            )?;
            let kind = match k {
                "f32" => ScalarKind::F32,
                "f64" => ScalarKind::F64,
                "i32" => ScalarKind::I32,
                "i16" => ScalarKind::I16,
                "u8" => ScalarKind::U8,
                other => return err(format!("unknown scalar kind {other}")),
            };
            Ok(DataType::Scalar(kind))
        }
        Some("array") => {
            let elem = parse_type(items.get(1).ok_or(ModelIoError("array elem".into()))?)?;
            let shape = items[2..]
                .iter()
                .map(|d| as_usize(d, "dimension"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(DataType::Array {
                elem: Box::new(elem),
                shape,
            })
        }
        Some("record") => {
            let mut fields = Vec::new();
            for f in &items[1..] {
                let fi = f.as_list().ok_or(ModelIoError("field form".into()))?;
                if fi.len() != 3 || as_sym(&fi[0], "field")? != "field" {
                    return err("record fields are (field \"name\" type)");
                }
                fields.push((as_str(&fi[1], "field name")?, parse_type(&fi[2])?));
            }
            Ok(DataType::Record(fields))
        }
        _ => err(format!("unknown type form {v}")),
    }
}

fn parse_striping(v: &Ast) -> Result<Striping, ModelIoError> {
    match &v.node {
        AstNode::Symbol(s) if s == "replicated" => Ok(Striping::Replicated),
        AstNode::List(items) if items.len() == 2 && items[0].as_symbol() == Some("striped") => {
            Ok(Striping::Striped {
                dim: as_usize(&items[1], "striping dim")?,
            })
        }
        _ => err(format!("bad striping {v}")),
    }
}

fn parse_props(items: &[Ast], props: &mut sage_model::Properties) -> Result<(), ModelIoError> {
    for entry in items {
        let pair = entry.as_list().ok_or(ModelIoError("prop pair".into()))?;
        if pair.len() != 2 {
            return err("props entries are (\"key\" value)");
        }
        let key = as_str(&pair[0], "prop key")?;
        let val = match &pair[1].node {
            AstNode::Str(s) => PropValue::Str(s.clone()),
            AstNode::Int(i) => PropValue::Int(*i),
            AstNode::Float(f) => PropValue::Float(*f),
            AstNode::Bool(b) => PropValue::Bool(*b),
            _ => return err(format!("bad prop value {}", pair[1])),
        };
        props.insert(key, val);
    }
    Ok(())
}

fn parse_block(items: &[Ast]) -> Result<Block, ModelIoError> {
    // (block "name" <kind> (port ...)* (props ...)?)
    let name = as_str(
        items.get(1).ok_or(ModelIoError("block name".into()))?,
        "block name",
    )?;
    let kind_form = items
        .get(2)
        .ok_or(ModelIoError("block kind".into()))?
        .as_list()
        .ok_or(ModelIoError("block kind form".into()))?;
    let kind = match as_sym(&kind_form[0], "block kind")? {
        "source" => BlockKind::Source {
            threads: as_usize(&kind_form[1], "threads")?,
        },
        "sink" => BlockKind::Sink {
            threads: as_usize(&kind_form[1], "threads")?,
        },
        "primitive" => {
            let function = as_str(&kind_form[1], "function")?;
            let threads = as_usize(&kind_form[2], "threads")?;
            let cost_form = kind_form
                .get(3)
                .and_then(Ast::as_list)
                .ok_or(ModelIoError("cost form".into()))?;
            let flops = cost_form[1]
                .as_f64()
                .ok_or(ModelIoError("cost flops".into()))?;
            let mem = cost_form[2]
                .as_f64()
                .ok_or(ModelIoError("cost mem".into()))?;
            BlockKind::Primitive {
                function,
                threads,
                cost: CostModel::new(flops, mem),
            }
        }
        "hierarchical" => {
            let sub = parse_model_form(
                kind_form
                    .get(1)
                    .ok_or(ModelIoError("hierarchical submodel".into()))?,
            )?;
            BlockKind::Hierarchical {
                subgraph: Box::new(sub),
            }
        }
        other => return err(format!("unknown block kind {other}")),
    };
    let mut ports = Vec::new();
    let mut props = sage_model::Properties::new();
    for form in &items[3..] {
        let f = form.as_list().ok_or(ModelIoError("block body".into()))?;
        match f.first().map(|h| as_sym(h, "block body")).transpose()? {
            Some("port") => {
                let direction = match as_sym(&f[1], "direction")? {
                    "in" => Direction::In,
                    "out" => Direction::Out,
                    other => return err(format!("bad direction {other}")),
                };
                ports.push(Port {
                    name: as_str(&f[2], "port name")?,
                    direction,
                    data_type: parse_type(&f[3])?,
                    striping: parse_striping(&f[4])?,
                });
            }
            Some("props") => parse_props(&f[1..], &mut props)?,
            _ => return err(format!("unexpected block entry {form}")),
        }
    }
    Ok(Block {
        name,
        kind,
        ports,
        props,
    })
}

fn parse_model_form(v: &Ast) -> Result<AppGraph, ModelIoError> {
    let items = v.as_list().ok_or(ModelIoError("model form".into()))?;
    if items.is_empty() || as_sym(&items[0], "model head")? != "model" {
        return err("file must start with (model \"name\" ...)");
    }
    let name = as_str(
        items.get(1).ok_or(ModelIoError("model name".into()))?,
        "model name",
    )?;
    let mut app = AppGraph::new(name);
    let mut pending_connects = Vec::new();
    for form in &items[2..] {
        let f = form.as_list().ok_or(ModelIoError("model body".into()))?;
        match f.first().map(|h| as_sym(h, "model body")).transpose()? {
            Some("props") => parse_props(&f[1..], &mut app.props)?,
            Some("block") => {
                app.add_block(parse_block(f)?);
            }
            Some("connect") => {
                pending_connects.push((
                    as_str(&f[1], "from block")?,
                    as_str(&f[2], "from port")?,
                    as_str(&f[3], "to block")?,
                    as_str(&f[4], "to port")?,
                ));
            }
            _ => return err(format!("unexpected model entry {form}")),
        }
    }
    for (fb, fp, tb, tp) in pending_connects {
        let from = app
            .block_by_name(&fb)
            .ok_or_else(|| ModelIoError(format!("unknown block `{fb}`")))?;
        let to = app
            .block_by_name(&tb)
            .ok_or_else(|| ModelIoError(format!("unknown block `{tb}`")))?;
        app.connect(from, &fp, to, &tp)
            .map_err(|e| ModelIoError(e.to_string()))?;
    }
    Ok(app)
}

/// Reads model text into spanned forms: the one parse a model file goes
/// through, shared by [`model_from_sexpr`] and [`crate::load`]. A syntax
/// error is reported with its `line:column` resolved against the source
/// text, beside the byte offset it points at.
#[allow(clippy::disallowed_methods)] // the one call (`clippy.toml`)
pub(crate) fn read_forms(src: &str) -> Result<Vec<Ast>, (ModelIoError, usize)> {
    parse_program(src).map_err(|e| {
        let (line, col) = sage_alter::line_col_at(src, e.offset());
        let what = match &e {
            AlterError::Lex { message, .. } => format!("lex error: {message}"),
            AlterError::Parse { message, .. } => format!("parse error: {message}"),
        };
        (ModelIoError(format!("{line}:{col}: {what}")), e.offset())
    })
}

/// Builds the model from the first `(model ...)` form of a read file.
pub(crate) fn model_from_forms(forms: &[Ast]) -> Result<AppGraph, ModelIoError> {
    let model = forms
        .iter()
        .find(|f| f.head_symbol() == Some("model"))
        .ok_or(ModelIoError("no (model ...) form found".into()))?;
    parse_model_form(model)
}

/// Parses a model file produced by [`model_to_sexpr`].
pub fn model_from_sexpr(src: &str) -> Result<AppGraph, ModelIoError> {
    model_from_forms(&read_forms(src).map_err(|(e, _)| e)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_benchmark_models() {
        {
            let model = crate::codegen::tests::demo_app(4);
            let text = model_to_sexpr(&model);
            let back = model_from_sexpr(&text).unwrap();
            assert_eq!(model, back, "text was:\n{text}");
        }
    }

    #[test]
    fn round_trips_hierarchy_and_props() {
        use sage_model::{Block, DataType, Port};
        let mut inner = AppGraph::new("inner");
        inner.add_block(Block::primitive(
            "core",
            "id",
            2,
            CostModel::new(1.5, 2.5),
            vec![
                Port::input("in", DataType::complex_matrix(4, 4), Striping::BY_ROWS),
                Port::output("out", DataType::complex_matrix(4, 4), Striping::BY_COLS),
            ],
        ));
        let mut outer = AppGraph::new("outer");
        outer.props.insert("version".into(), PropValue::Int(3));
        let s = outer.add_block(
            Block::source_threaded(
                "s",
                2,
                vec![Port::output(
                    "out",
                    DataType::complex_matrix(4, 4),
                    Striping::BY_ROWS,
                )],
            )
            .with_prop("kernel", PropValue::Str("k".into()))
            .with_prop("rate", PropValue::Float(1.25))
            .with_prop("live", PropValue::Bool(true)),
        );
        let h = outer.add_block(Block::hierarchical(
            "stage",
            inner,
            vec![
                Port::input("in", DataType::complex_matrix(4, 4), Striping::BY_ROWS),
                Port::output("out", DataType::complex_matrix(4, 4), Striping::BY_COLS),
            ],
        ));
        let k = outer.add_block(Block::sink_threaded(
            "t",
            2,
            vec![Port::input(
                "in",
                DataType::complex_matrix(4, 4),
                Striping::BY_COLS,
            )],
        ));
        outer.connect(s, "out", h, "in").unwrap();
        outer.connect(h, "out", k, "in").unwrap();

        let text = model_to_sexpr(&outer);
        let back = model_from_sexpr(&text).unwrap();
        assert_eq!(outer, back, "text was:\n{text}");
    }

    #[test]
    fn round_trips_exotic_types() {
        use sage_model::{Block, Port};
        let rec = DataType::Record(vec![
            ("hdr".into(), DataType::Scalar(ScalarKind::I32)),
            (
                "data".into(),
                DataType::Array {
                    elem: Box::new(DataType::Complex),
                    shape: vec![8],
                },
            ),
            ("flag".into(), DataType::Scalar(ScalarKind::U8)),
        ]);
        let mut g = AppGraph::new("types");
        g.add_block(Block::source(
            "s",
            vec![Port::output("out", rec, Striping::Replicated)],
        ));
        let back = model_from_sexpr(&model_to_sexpr(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn loaded_model_feeds_the_generator() {
        let model = crate::codegen::tests::demo_app(4);
        let loaded = model_from_sexpr(&model_to_sexpr(&model)).unwrap();
        let hw = sage_model::HardwareShelf::cspi_with_nodes(4);
        let a = crate::codegen::generate(&model, &hw, &crate::Placement::Aligned).unwrap();
        let b = crate::codegen::generate(&loaded, &hw, &crate::Placement::Aligned).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(model_from_sexpr("(not-a-model)").is_err());
        assert!(model_from_sexpr("(model)").is_err());
        assert!(model_from_sexpr("(model \"x\" (block))").is_err());
        assert!(model_from_sexpr("(model \"x\" (connect \"a\" \"out\" \"b\" \"in\"))").is_err());
        // Unbalanced parens surface the parser error.
        assert!(model_from_sexpr("(model \"x\"").is_err());
    }

    /// Error text pinned from the build before the reader lost its `Value`
    /// tree (PR 22): syntax errors with their `line:col`, structural errors
    /// with the offending form as the old printer rendered it.
    #[test]
    fn malformed_files_keep_their_error_text() {
        let cases = [
            ("(model \"x\"\n  (block", "2:3: parse error: unclosed `(`"),
            ("(model \"x\")\n  )", "2:3: parse error: unexpected `)`"),
            ("(model \"x", "1:8: lex error: unterminated string"),
            ("(model \"x\" \"a\\q\")", "1:15: lex error: bad escape `\\q`"),
            ("(not-a-model)", "no (model ...) form found"),
            ("", "no (model ...) form found"),
            ("(model)", "model name"),
            ("(model x)", "expected model name string, got x"),
            ("(model \"m\" 12)", "model body"),
            ("(model \"m\" (wire \"a\" 1.50 2e20))", "unexpected model entry (wire a 1.5 200000000000000000000)"),
            ("(model \"m\" (block))", "block name"),
            ("(model \"m\" (block 5 (source 1)))", "expected block name string, got 5"),
            ("(model \"m\" (block \"s\" source))", "block kind form"),
            ("(model \"m\" (block \"s\" (widget 1)))", "unknown block kind widget"),
            ("(model \"m\" (block \"s\" (source 2.5)))", "expected threads integer, got 2.5"),
            ("(model \"m\" (block \"s\" (source \"two\")))", "expected threads integer, got two"),
            (
                "(model \"m\" (block \"s\" (sink (a \"b\" 1.0 -3 #t nil 'q))))",
                "expected threads integer, got (a b 1.0 -3 #t () (quote q))",
            ),
            ("(model \"m\" (block \"s\" (primitive \"f\" 1)))", "cost form"),
            ("(model \"m\" (block \"s\" (primitive \"f\" 1 (cost a 1.0))))", "cost flops"),
            ("(model \"m\" (block \"s\" (hierarchical)))", "hierarchical submodel"),
            (
                "(model \"m\" (block \"s\" (hierarchical (modle \"i\"))))",
                "file must start with (model \"name\" ...)",
            ),
            ("(model \"m\" (block \"s\" (source 1) 7))", "block body"),
            (
                "(model \"m\" (block \"s\" (source 1) (bogus 1 2.0 \"s\")))",
                "unexpected block entry (bogus 1 2.0 s)",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port sideways \"o\" (complex) replicated)))",
                "bad direction sideways",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" complex replicated)))",
                "bad type form complex",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (array \"c\" 4) replicated)))",
                "bad type form c",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (matrix 4 4) replicated)))",
                "unknown type form (matrix 4 4)",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (scalar f16) replicated)))",
                "unknown scalar kind f16",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (array (complex) 4 x) replicated)))",
                "expected dimension integer, got x",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (record (field \"a\")) replicated)))",
                "record fields are (field \"name\" type)",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (complex) (striped))))",
                "bad striping (striped)",
            ),
            (
                "(model \"m\" (block \"s\" (source 1) (port out \"o\" (complex) (striped 1.5))))",
                "expected striping dim integer, got 1.5",
            ),
            ("(model \"m\" (props \"k\"))", "prop pair"),
            ("(model \"m\" (props (\"k\")))", "props entries are (\"key\" value)"),
            ("(model \"m\" (props (k 1)))", "expected prop key string, got k"),
            ("(model \"m\" (props (\"k\" (1 2))))", "bad prop value (1 2)"),
            ("(model \"m\" (block \"s\" (source 1) (props (\"k\" sym))))", "bad prop value sym"),
            ("(model \"m\" (connect \"a\" \"out\" \"b\" \"in\"))", "unknown block `a`"),
            (
                "(model \"m\" (block \"a\" (source 1) (port out \"out\" (complex) replicated)) \
                 (connect \"a\" out \"b\" \"in\"))",
                "expected from port string, got out",
            ),
            (
                "(model \"m\" (block \"a\" (source 1) (port out \"out\" (complex) replicated)) \
                 (connect \"a\" \"out\" \"b\" \"in\"))",
                "unknown block `b`",
            ),
            (
                "(model \"m\" (block \"a\" (source 1) (port out \"out\" (complex) replicated)) \
                 (block \"b\" (sink 1) (port in \"in\" (complex) replicated)) \
                 (connect \"a\" \"nope\" \"b\" \"in\"))",
                "block `a` has no port `nope`",
            ),
        ];
        for (src, expected) in cases {
            let err = model_from_sexpr(src).expect_err(src);
            assert_eq!(
                err.to_string(),
                format!("model file error: {expected}"),
                "{src}"
            );
        }
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = model_from_sexpr("(model \"x\"\n  (block").unwrap_err();
        // The unclosed inner `(` on line 2, column 3.
        assert!(err.0.contains("2:3: parse error"), "{err}");
        let err = model_from_sexpr("(model \"x\")\n  )").unwrap_err();
        assert!(err.0.contains("2:3: parse error"), "{err}");
    }

    #[test]
    fn escaped_names_survive() {
        use sage_model::{Block, Port};
        let mut g = AppGraph::new(r#"we "quote" \slashes\"#);
        g.add_block(Block::source(
            "s",
            vec![Port::output("out", DataType::Complex, Striping::Replicated)],
        ));
        let back = model_from_sexpr(&model_to_sexpr(&g)).unwrap();
        assert_eq!(g.name, back.name);
    }
}
