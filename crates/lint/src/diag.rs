//! The unified diagnostics engine: stable `SAGE0xx` codes, severities,
//! source spans, rustc-style rendered output, and machine-readable JSON.
//!
//! Every analysis pass in the tool suite reports through [`Diagnostics`], so
//! the Designer-era model checks and `sage-check`'s passes over the
//! generated program speak one language.

use sage_alter::Span;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily fatal; `--deny-warnings` promotes.
    Warning,
    /// The model/program cannot work as written.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Declares the registry once: each row is `(code, default severity,
/// summary, long-form explanation)`. [`CODE_TABLE`] and
/// [`code_explanation`] are both derived from these rows, so a code cannot
/// have a summary without an explanation or the other way round.
macro_rules! code_registry {
    ($(($code:literal, $severity:expr, $summary:literal, $explanation:literal $(,)?)),* $(,)?) => {
        /// The stable diagnostic-code registry: `(code, default severity, summary)`.
        ///
        /// Codes are append-only: once published they keep their meaning forever so
        /// tooling can match on them. 00x: 001–006 retired with the Alter script
        /// analyzer (never reused), 007 = model file syntax; 01x/02x = model
        /// and mapping validity (the Designer-era `ModelError` checks), 03x =
        /// model/hardware consistency, 04x = generated-program analysis, 05x =
        /// glue-program abstract interpretation (`sage-check`).
        pub const CODE_TABLE: &[(&str, Severity, &str)] = &[$(($code, $severity, $summary)),*];

        /// Looks up the long-form explanation for a code (`None` for unknown
        /// codes), rendered by `sage explain SAGE0xx` and `sage lint --explain`
        /// so CI failures are self-documenting. Every code in [`CODE_TABLE`]
        /// has one.
        pub fn code_explanation(code: &str) -> Option<&'static str> {
            match code {
                $($code => Some($explanation),)*
                _ => None,
            }
        }
    };
}

code_registry! {
    (
        "SAGE007",
        Severity::Error,
        "model file cannot be loaded",
        "The model file could not be loaded as a SAGE Designer s-expression: \
         either it does not parse or a required form is missing. Fix the file \
         before any deeper analysis can run.",
    ),
    (
        "SAGE010",
        Severity::Error,
        "duplicate block name",
        "Two blocks in the same (flattened) scope share a name. Block names \
         key connections, mappings, and diagnostics, so they must be unique.",
    ),
    (
        "SAGE011",
        Severity::Error,
        "no such port",
        "A connection references a port name the block does not declare.",
    ),
    (
        "SAGE012",
        Severity::Error,
        "connection direction mismatch",
        "A connection runs from an input port or into an output port. \
         Connections must go output -> input.",
    ),
    (
        "SAGE013",
        Severity::Error,
        "connection type mismatch",
        "The two ends of a connection declare different data types (element \
         type or array shape). The runtime moves raw bytes, so mismatched \
         declarations would silently reinterpret data.",
    ),
    (
        "SAGE014",
        Severity::Error,
        "input port has multiple writers",
        "An input port is the destination of more than one connection. Every \
         input has exactly one writer; use separate ports to merge streams.",
    ),
    (
        "SAGE015",
        Severity::Error,
        "dataflow cycle",
        "The dataflow graph contains a cycle, so no topological execution \
         order exists. Cycles through blocks with an explicit `delay` \
         property are reported as warnings instead.",
    ),
    (
        "SAGE016",
        Severity::Error,
        "boundary port has no internal binding",
        "A hierarchical block declares a boundary port that no inner block \
         port binds to, so the connection has nowhere to land after \
         flattening.",
    ),
    (
        "SAGE017",
        Severity::Error,
        "ambiguous boundary port",
        "A hierarchical boundary port name matches more than one inner \
         binding, so flattening cannot pick one.",
    ),
    (
        "SAGE018",
        Severity::Error,
        "unconnected input port",
        "An input port has no incoming connection. The consuming kernel \
         would read an uninitialized (all-zero) buffer every iteration.",
    ),
    (
        "SAGE019",
        Severity::Error,
        "striping does not divide the thread count",
        "A striped port's dimension extent is not divisible by the block's \
         thread count, so no even data distribution exists and the striping \
         engine cannot lay the buffer out.",
    ),
    (
        "SAGE020",
        Severity::Error,
        "mapping does not cover the task graph",
        "The task mapping does not assign every (block, thread) task to a \
         node; unmapped tasks could never be scheduled.",
    ),
    (
        "SAGE021",
        Severity::Error,
        "mapping references a node outside the hardware",
        "The mapping (or placement) references a node index outside the \
         hardware model.",
    ),
    (
        "SAGE022",
        Severity::Error,
        "unregistered shelf function",
        "A block references a shelf function that the software shelf does \
         not carry, so no cost model (and at run time no kernel) exists for \
         it.",
    ),
    (
        "SAGE023",
        Severity::Error,
        "endpoint out of range",
        "A connection endpoint references a block id outside the model — an \
         internal consistency failure of the model file.",
    ),
    (
        "SAGE030",
        Severity::Warning,
        "striping factor does not divide the node count",
        "A striped port's thread count does not divide evenly by the node \
         count, so the aligned placement puts unequal numbers of threads on \
         the nodes and the load is skewed.",
    ),
    (
        "SAGE031",
        Severity::Warning,
        "idle nodes under the chosen placement",
        "The chosen placement leaves some nodes with no tasks at all. The \
         machine is bigger than the model can use.",
    ),
    (
        "SAGE032",
        Severity::Warning,
        "large fan-out replicates a bulky payload",
        "One output port fans out to many consumers with a bulky payload; \
         every consumer receives a full copy, multiplying the traffic.",
    ),
    (
        "SAGE040",
        Severity::Error,
        "communication deadlock in the generated schedule",
        "Tasks wait on each other in a cycle: each node executes its \
         schedule in order, and a consumer scheduled before its producer \
         (directly or transitively across nodes) blocks forever. The note \
         chain lists every wait on the cycle.",
    ),
    (
        "SAGE041",
        Severity::Error,
        "malformed glue program",
        "The generated glue program fails its structural self-checks \
         (function ids, placements, schedule coverage, buffer endpoints). \
         Deeper program analysis needs a well-formed program.",
    ),
    (
        "SAGE050",
        Severity::Error,
        "unmatched transfer between producer and consumer tasks",
        "A redistribution transfer has no matching endpoint: a task sends a \
         stripe no scheduled task receives, a task waits for a stripe no \
         task sends, or a same-node hand-off is consumed before the \
         producing task runs. At run time this fails as a TransferFailed \
         (missing hand-off) or a hang. The diagnostic names both endpoints' \
         task paths.",
    ),
    (
        "SAGE051",
        Severity::Error,
        "transfer tag collision",
        "One transfer tag (buffer, source thread, destination thread) is \
         sent by more than one task, or received by more than one task. \
         The runtime's mailbox would deliver the wrong message to one of \
         them. The diagnostic names every task that shares the tag.",
    ),
    (
        "SAGE052",
        Severity::Error,
        "use of an uninitialized logical buffer",
        "A function-table entry lists an input buffer that is not routed to \
         it (the buffer's consumer is another function), or a consumer \
         thread's stripe is not fully covered by producer intervals. The \
         kernel would read uninitialized bytes.",
    ),
    (
        "SAGE053",
        Severity::Error,
        "double-write to a logical buffer",
        "A function-table entry lists an output buffer it does not produce \
         (the buffer's producer is another function), so two writers race on \
         one logical buffer and its transfer tags.",
    ),
    (
        "SAGE054",
        Severity::Error,
        "shape or dtype violates the kernel's contract",
        "A logical buffer or kernel invocation violates the kernel's shape \
         or dtype contract: degenerate descriptors (zero-byte elements, \
         zero-extent dimensions), stripe byte counts that differ between a \
         copy-through kernel's input and output, a transpose whose output \
         shape is not the transposed input shape, a non-power-of-two FFT \
         length, or a non-complex element type fed to an ISSPL kernel. These \
         fail at run time as kernel errors or panics.",
    ),
    (
        "SAGE055",
        Severity::Error,
        "per-node memory high-water-mark exceeds the hardware model",
        "Walking the node's schedule, the peak of live logical-buffer bytes \
         (task working sets plus pending same-node hand-offs) exceeds the \
         node's modeled DRAM (`mem_mb`). The run-time allocator would \
         overcommit physical memory.",
    ),
    (
        "SAGE056",
        Severity::Warning,
        "redistribution traffic is bandwidth-infeasible",
        "The estimated per-iteration wire time for one node's off-node \
         redistribution traffic (bytes over the modeled link bandwidth plus \
         per-message latency) exceeds the feasibility budget: the fabric, \
         not computation, bounds the achievable rate.",
    ),
    (
        "SAGE057",
        Severity::Error,
        "program exceeds the transfer-tag field widths",
        "The program exceeds a transfer-tag field width (2^20 logical \
         buffers, 2^10 threads per function). Tags would alias between \
         distinct transfers and silently corrupt redistribution in release \
         builds.",
    ),
    (
        "SAGE060",
        Severity::Warning,
        "cross-iteration hazard caps the pipeline depth",
        "The streaming executor gives every logical buffer a uniform ring \
         of depth-many slots (slot = iteration mod depth). A `delay` arc's \
         consumer reads the payload the producer emitted `delay` iterations \
         earlier, so at any depth >= 2 the producer can overwrite that ring \
         slot before the reader gets there — a cross-iteration \
         write-after-read hazard. The diagnostic names both the writing and \
         the reading task's schedule slots and the depth at which the \
         hazard first appears; the pipeline pass caps the buffer's safe \
         depth at 1 (lock-step).",
    ),
    (
        "SAGE061",
        Severity::Warning,
        "feedback cycle forces lock-step execution",
        "The dataflow graph contains a feedback cycle, schedulable only \
         because a block on it declares a `delay` property (the arc leaving \
         it crosses the iteration boundary). Iteration i of the cycle's \
         head consumes what iteration i-delay produced, so iterations \
         cannot overlap without the ring slot being reused out from under \
         its reader: the safe pipeline depth is 1 (lock-step). The \
         diagnostic reports the full cycle path.",
    ),
    (
        "SAGE062",
        Severity::Warning,
        "ring buffers at the requested depth exceed node memory",
        "Running the pipeline at the requested depth N gives every live \
         logical buffer an N-slot ring, multiplying each node's high-water \
         mark by N. For at least one node that exceeds the hardware model's \
         DRAM (`mem_mb`), so memory, not hazards, caps the achievable depth. \
         The diagnostic reports the deepest ring that still fits.",
    ),
    (
        "SAGE070",
        Severity::Error,
        "write/write race on an input port with no happens-before ordering",
        "Two producer tasks write overlapping byte regions of the same \
         input-port version, and no chain of program order (a node's serial \
         schedule walk) and synchronization order (matched transfers, where \
         the run-time's vector clocks join) orders one before the other. \
         The port's final bytes depend on message arrival order, so two \
         runs of the same program can disagree. The diagnostic names both \
         writing tasks' schedule slots; `sage run --race-detect` fails the \
         same pair dynamically as RaceDetected.",
    ),
    (
        "SAGE071",
        Severity::Error,
        "read/write race on an input port with no happens-before ordering",
        "A consumer task reads an input-port version while an unordered \
         producer task is still writing overlapping bytes of it: no \
         transfer chain puts the write before (or after) the read, so the \
         kernel may observe a partly written stripe. Arises only in \
         hand-built or mis-wired programs — canonically generated transfers \
         always synchronize their own reader.",
    ),
    (
        "SAGE072",
        Severity::Warning,
        "ordering depends on the lock-step iteration boundary",
        "Two conflicting accesses to an input-port version are ordered in \
         lock-step execution, but only through the iteration boundary (the \
         last schedule slot of iteration i preceding the first slot of \
         iteration i+1). Pipelined execution interleaves iterations and \
         removes exactly that edge, so the ordering — and the program's \
         determinism — silently degrades at depth >= 2. The race pass caps \
         the involved buffers' safe pipeline depth at 1, which the \
         pipeline plan reports as `race`.",
    ),
    (
        "SAGE073",
        Severity::Warning,
        "unordered writers are a benign same-value splat",
        "Two unordered producer tasks write the same byte regions of an \
         input-port version, but both run the same generator kernel with \
         identical parameters over identical regions: either arrival order \
         leaves the same bytes, so the race is benign. Reported as a \
         warning because the equivalence holds only while the generators \
         stay deterministic and identically configured; the dynamic \
         detector applies the same exemption by content hash.",
    ),
}

/// Looks up the registry summary for a code (`None` for unknown codes).
pub fn code_summary(code: &str) -> Option<&'static str> {
    CODE_TABLE
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, _, s)| *s)
}

/// One finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`CODE_TABLE`], e.g. `"SAGE011"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// One-line human description of this specific finding.
    pub message: String,
    /// Byte range in the source file the finding points at, if known.
    pub span: Option<Span>,
    /// Additional context lines (the deadlock blocking chain, suggestions).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches a source span if one is provided (no-op on `None`).
    pub fn with_span_opt(mut self, span: Option<Span>) -> Diagnostic {
        if let Some(s) = span {
            self.span = Some(s);
        }
        self
    }

    /// Appends a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }
}

/// An ordered collection of findings for one source file / artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Diagnostics {
    /// The findings, in discovery order (see [`Diagnostics::sort`]).
    pub diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Merges another collection into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.diags.extend(other.diags);
    }

    /// `true` when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether this collection should fail the lint run.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.error_count() > 0 || (deny_warnings && self.warning_count() > 0)
    }

    /// `"2 errors, 1 warning"` — for CLI exit messages.
    pub fn summary(&self) -> String {
        let e = self.error_count();
        let w = self.warning_count();
        let plural = |n: usize, word: &str| format!("{n} {word}{}", if n == 1 { "" } else { "s" });
        match (e, w) {
            (0, 0) => "no findings".into(),
            (0, w) => plural(w, "warning"),
            (e, 0) => plural(e, "error"),
            (e, w) => format!("{}, {}", plural(e, "error"), plural(w, "warning")),
        }
    }

    /// Orders findings by source position (spanless findings first, keeping
    /// their discovery order), then by code.
    pub fn sort(&mut self) {
        self.diags.sort_by_key(|d| {
            (
                d.span.map(|s| s.start + 1).unwrap_or(0),
                d.code,
                d.message.clone(),
            )
        });
    }

    /// Renders all findings rustc-style against `file` (and its `source`
    /// text, when available, for caret snippets).
    ///
    /// ```text
    /// error[SAGE011]: block `fft` has no port `inn`
    ///   --> model.sexpr:3:30
    ///    |
    ///  3 |   (connect "src" "out" "fft" "inn")
    ///    |                              ^^^^^
    ///    = note: ...
    /// ```
    pub fn render(&self, file: &str, source: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diags {
            render_one(&mut out, d, file, source);
        }
        out
    }

    /// Machine-readable JSON: one object per finding, with resolved
    /// line/column when the source text is available.
    pub fn to_json(&self, file: &str, source: Option<&str>) -> String {
        let mut j = JsonWriter::default();
        j.object(|j| {
            j.key("file").string(file);
            j.key("diagnostics").array(|j| {
                for d in &self.diags {
                    j.object(|j| {
                        j.key("code").string(d.code);
                        j.key("severity").string(&d.severity.to_string());
                        j.key("message").string(&d.message);
                        if let Some(span) = d.span {
                            j.key("span").object(|j| {
                                j.key("start").number(span.start);
                                j.key("end").number(span.end);
                            });
                            if let Some(src) = source {
                                let (line, col) = span.line_col(src);
                                j.key("line").number(line);
                                j.key("column").number(col);
                            }
                        }
                        j.key("notes").array(|j| {
                            for n in &d.notes {
                                j.string(n);
                            }
                        });
                    });
                }
            });
        });
        j.finish()
    }
}

fn render_one(out: &mut String, d: &Diagnostic, file: &str, source: Option<&str>) {
    out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
    match (d.span, source) {
        (Some(span), Some(src)) => {
            let (line, col) = span.line_col(src);
            let gutter = line.to_string().len().max(2);
            out.push_str(&format!("{:gutter$}--> {file}:{line}:{col}\n", ""));
            let line_start = src[..span.start.min(src.len())]
                .rfind('\n')
                .map(|p| p + 1)
                .unwrap_or(0);
            let line_text: &str = src[line_start..].lines().next().unwrap_or("");
            let width = if span.end > span.start {
                src[span.start.min(src.len())..span.end.min(src.len())]
                    .lines()
                    .next()
                    .unwrap_or("")
                    .chars()
                    .count()
                    .max(1)
            } else {
                1
            };
            out.push_str(&format!("{:gutter$} |\n", ""));
            out.push_str(&format!("{line:>gutter$} | {line_text}\n"));
            out.push_str(&format!(
                "{:gutter$} | {:pad$}{}\n",
                "",
                "",
                "^".repeat(width),
                pad = col - 1
            ));
            for n in &d.notes {
                out.push_str(&format!("{:gutter$} = note: {n}\n", ""));
            }
        }
        _ => {
            out.push_str(&format!("  --> {file}\n"));
            for n in &d.notes {
                out.push_str(&format!("   = note: {n}\n"));
            }
        }
    }
    out.push('\n');
}

/// Appends `s` to `out` as a JSON string literal — the one escaper every
/// JSON artefact in the tool suite goes through, by way of [`JsonWriter`].
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Compact JSON written in document order: the one writer behind every
/// `to_json` in the tool suite. The caller gives the shape; the writer
/// places the commas and escapes the strings.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// The next value at this nesting level needs a comma before it.
    comma: bool,
}

impl JsonWriter {
    fn value(&mut self, write: impl FnOnce(&mut String)) -> &mut JsonWriter {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        write(&mut self.out);
        self
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut JsonWriter)) {
        self.value(|out| out.push(open)).comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// An object member's key; its value is the next thing written.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.value(|out| {
            json_string(out, key);
            out.push(':');
        })
        .comma = false;
        self
    }

    /// A string value.
    pub fn string(&mut self, s: &str) {
        self.value(|out| json_string(out, s));
    }

    /// A numeric value.
    pub fn number(&mut self, n: impl std::fmt::Display) {
        self.value(|out| out.push_str(&n.to_string()));
    }

    /// `null`.
    pub fn null(&mut self) {
        self.value(|out| out.push_str("null"));
    }

    /// An object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut JsonWriter)) {
        self.nested('{', '}', members);
    }

    /// An array whose items `items` writes.
    pub fn array(&mut self, items: impl FnOnce(&mut JsonWriter)) {
        self.nested('[', ']', items);
    }

    /// The document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (code, _, summary) in CODE_TABLE {
            assert!(seen.insert(*code), "duplicate code {code}");
            assert!(code.starts_with("SAGE") && code.len() == 7, "{code}");
            assert!(!summary.is_empty());
        }
    }

    #[test]
    fn every_code_has_exactly_one_explanation() {
        for (code, _, _) in CODE_TABLE {
            assert!(code_explanation(code).is_some_and(|text| !text.is_empty()));
        }
        assert!(code_explanation("SAGE999").is_none());
    }

    #[test]
    fn render_with_span_shows_caret() {
        let src = "(model \"m\"\n  (block \"frobnicate\"))\n";
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::error("SAGE010", "duplicate block name `frobnicate`")
                .with_span(Span::new(20, 32))
                .with_note("block names must be unique"),
        );
        let r = ds.render("m.sexpr", Some(src));
        assert!(r.contains("error[SAGE010]: duplicate block name `frobnicate`"));
        assert!(r.contains("--> m.sexpr:2:10"));
        assert!(r.contains("  (block \"frobnicate\"))"));
        assert!(r.contains("^^^^^^^^^^^^"));
        assert!(r.contains("= note: block names"));
    }

    #[test]
    fn render_without_span_still_names_the_file() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("SAGE031", "nodes 2..3 are idle"));
        let r = ds.render("model.sexpr", None);
        assert!(r.contains("warning[SAGE031]: nodes 2..3 are idle"));
        assert!(r.contains("--> model.sexpr"));
    }

    #[test]
    fn json_escapes_and_resolves_positions() {
        let src = "bad \"line\"";
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::error("SAGE007", "quote \"trouble\"").with_span(Span::new(4, 10)));
        let j = ds.to_json("a\"b.sexpr", Some(src));
        assert!(j.contains("\"file\":\"a\\\"b.sexpr\""));
        assert!(j.contains("\"message\":\"quote \\\"trouble\\\"\""));
        assert!(j.contains("\"line\":1,\"column\":5"));
        assert!(j.contains("\"span\":{\"start\":4,\"end\":10}"));
    }

    #[test]
    fn summary_counts() {
        let mut ds = Diagnostics::new();
        assert_eq!(ds.summary(), "no findings");
        ds.push(Diagnostic::error("SAGE010", "a"));
        ds.push(Diagnostic::error("SAGE011", "b"));
        ds.push(Diagnostic::warning("SAGE031", "c"));
        assert_eq!(ds.summary(), "2 errors, 1 warning");
        assert!(ds.fails(false));
        let mut warn_only = Diagnostics::new();
        warn_only.push(Diagnostic::warning("SAGE031", "c"));
        assert!(!warn_only.fails(false));
        assert!(warn_only.fails(true));
    }
}
