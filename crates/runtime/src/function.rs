//! The run-time function ABI and registry.
//!
//! Function-table entries name their kernel by registry string (the shelf
//! binding, e.g. `"isspl.fft_rows"`). At execution time the run-time
//! resolves the name, assembles the thread-local input stripes, and invokes
//! the kernel once per thread with a [`FnThreadCtx`].

use sage_fabric::Payload;
use sage_model::Properties;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A thread-local stripe of a logical buffer, with its local array shape.
///
/// The backing bytes are a reference-counted [`Payload`], so stripes can be
/// handed between tasks, deposited at sinks and queued on transports
/// without copying; mutation through `bytes` is copy-on-write.
#[derive(Clone, Debug, PartialEq)]
pub struct StripePayload {
    /// Packed bytes of the stripe (runs concatenated in order).
    pub bytes: Payload,
    /// Thread-local array shape (striped dims divided by thread count).
    pub shape: Vec<usize>,
    /// Bytes per element.
    pub elem_bytes: usize,
}

impl StripePayload {
    /// Allocates a zeroed stripe.
    pub fn zeroed(shape: Vec<usize>, elem_bytes: usize) -> StripePayload {
        let n = shape.iter().product::<usize>() * elem_bytes;
        StripePayload {
            bytes: Payload::zeroed(n),
            shape,
            elem_bytes,
        }
    }

    /// Number of elements in the stripe.
    pub fn element_count(&self) -> usize {
        self.shape.iter().product()
    }
}

/// Everything a kernel thread sees for one invocation.
pub struct FnThreadCtx<'a> {
    /// Block instance name.
    pub fn_name: &'a str,
    /// This thread's index.
    pub thread: usize,
    /// Total threads of the host function.
    pub threads: usize,
    /// Iteration number.
    pub iteration: u32,
    /// Model properties of the block (sizes, seeds, ...).
    pub params: &'a Properties,
    /// Input stripes, in input-port order.
    pub inputs: &'a [StripePayload],
    /// Output stripes to fill, in output-port order (pre-sized, zeroed).
    /// Write in place; the stripe is uniquely owned while the kernel runs,
    /// so mutating `bytes` never copies.
    pub outputs: &'a mut [StripePayload],
}

impl FnThreadCtx<'_> {
    /// Convenience: an integer parameter from the block properties.
    pub fn param_i64(&self, key: &str) -> Option<i64> {
        match self.params.get(key)? {
            sage_model::PropValue::Int(i) => Some(*i),
            sage_model::PropValue::Float(f) => Some(*f as i64),
            _ => None,
        }
    }
}

/// Errors surfaced by the run-time.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A function-table entry names a kernel the registry does not know.
    UnknownFunction {
        /// Block instance name.
        block: String,
        /// Unresolved registry name.
        function: String,
    },
    /// A kernel rejected its invocation.
    Kernel {
        /// Block instance name.
        block: String,
        /// Kernel-supplied description.
        message: String,
    },
    /// The glue program failed validation.
    BadProgram(String),
    /// A node hit its scheduled failure (fault injection).
    NodeFailed {
        /// The failed node.
        node: u32,
    },
    /// A node's transfer can never complete because the peer failed or
    /// exited early.
    PeerFailed {
        /// The waiting node.
        node: u32,
        /// The dead peer.
        peer: u32,
    },
    /// A redistribution transfer kept dropping until the retry budget ran
    /// out.
    TransferFailed {
        /// The sending node.
        node: u32,
        /// The destination node.
        peer: u32,
        /// Total attempts made (first try + retries).
        attempts: u32,
    },
    /// A receive exceeded the fabric's real-time deadlock timeout.
    Timeout {
        /// The waiting node.
        node: u32,
        /// The expected source node.
        peer: u32,
    },
    /// Sink output could not be assembled from the deposited stripes.
    Assembly {
        /// The sink function id.
        fn_id: u32,
        /// The iteration being assembled.
        iteration: u32,
        /// What went wrong.
        message: String,
    },
    /// The vector-clock race detector found two conflicting logical-buffer
    /// accesses with no happens-before ordering between them.
    RaceDetected {
        /// The contested input port, as `consumer.port`.
        port: String,
        /// One access, as `read/write by <task path> at iteration N`.
        first: String,
        /// The other access, same form.
        second: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownFunction { block, function } => {
                write!(f, "block `{block}`: unknown function `{function}`")
            }
            RuntimeError::Kernel { block, message } => {
                write!(f, "kernel error in `{block}`: {message}")
            }
            RuntimeError::BadProgram(m) => write!(f, "invalid glue program: {m}"),
            RuntimeError::NodeFailed { node } => write!(f, "node {node} failed mid-run"),
            RuntimeError::PeerFailed { node, peer } => {
                write!(f, "node {node} lost contact with failed peer {peer}")
            }
            RuntimeError::TransferFailed {
                node,
                peer,
                attempts,
            } => {
                if *attempts == 0 {
                    // A same-node hand-off that was consumed before it was
                    // produced: nothing was ever sent, so no retries ran.
                    write!(
                        f,
                        "node {node}: hand-off from node {peer} never materialized \
                         (schedule out of order?)"
                    )
                } else {
                    write!(
                        f,
                        "node {node}: transfer to {peer} still dropped after {attempts} attempts"
                    )
                }
            }
            RuntimeError::Timeout { node, peer } => {
                write!(f, "node {node} timed out waiting on node {peer}")
            }
            RuntimeError::Assembly {
                fn_id,
                iteration,
                message,
            } => write!(
                f,
                "sink assembly failed for function {fn_id} iteration {iteration}: {message}"
            ),
            RuntimeError::RaceDetected {
                port,
                first,
                second,
            } => write!(
                f,
                "data race on `{port}`: {first} and {second} have no \
                 happens-before ordering"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A run-time kernel: the body of a function-table entry.
pub trait Kernel: Send + Sync {
    /// Executes one thread of one invocation.
    fn invoke(&self, ctx: &mut FnThreadCtx<'_>) -> Result<(), String>;
}

impl<F> Kernel for F
where
    F: Fn(&mut FnThreadCtx<'_>) -> Result<(), String> + Send + Sync,
{
    fn invoke(&self, ctx: &mut FnThreadCtx<'_>) -> Result<(), String> {
        self(ctx)
    }
}

/// The function registry: registry-name → kernel.
#[derive(Clone, Default)]
pub struct Registry {
    map: HashMap<String, Arc<dyn Kernel>>,
}

impl Registry {
    /// An empty registry with the universal builtins (`id`, `zero`,
    /// `source.zero`, `sink.null`) pre-registered.
    pub fn new() -> Registry {
        let mut r = Registry {
            map: HashMap::new(),
        };
        r.register("id", |ctx: &mut FnThreadCtx<'_>| {
            if ctx.inputs.len() != ctx.outputs.len() {
                return Err("id needs matching port counts".into());
            }
            for (i, o) in ctx.inputs.iter().zip(ctx.outputs.iter_mut()) {
                if i.bytes.len() != o.bytes.len() {
                    return Err(format!(
                        "id stripe mismatch: {} in vs {} out",
                        i.bytes.len(),
                        o.bytes.len()
                    ));
                }
                o.bytes.copy_from_slice(&i.bytes);
            }
            Ok(())
        });
        r.register("zero", |ctx: &mut FnThreadCtx<'_>| {
            for o in ctx.outputs.iter_mut() {
                o.bytes.fill(0);
            }
            Ok(())
        });
        r.register("source.zero", |ctx: &mut FnThreadCtx<'_>| {
            for o in ctx.outputs.iter_mut() {
                o.bytes.fill(0);
            }
            Ok(())
        });
        r.register("sink.null", |_: &mut FnThreadCtx<'_>| Ok(()));
        r
    }

    /// Registers (or replaces) a kernel under `name`.
    pub fn register(&mut self, name: impl Into<String>, kernel: impl Kernel + 'static) {
        self.map.insert(name.into(), Arc::new(kernel));
    }

    /// Resolves a kernel by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Kernel>> {
        self.map.get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_kernel_copies() {
        let reg = Registry::new();
        let id = reg.get("id").unwrap();
        let inputs = vec![StripePayload {
            bytes: vec![1, 2, 3, 4].into(),
            shape: vec![4],
            elem_bytes: 1,
        }];
        let mut outputs = vec![StripePayload::zeroed(vec![4], 1)];
        let mut ctx = FnThreadCtx {
            fn_name: "t",
            thread: 0,
            threads: 1,
            iteration: 0,
            params: &Properties::new(),
            inputs: &inputs,
            outputs: &mut outputs,
        };
        id.invoke(&mut ctx).unwrap();
        assert_eq!(outputs[0].bytes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn closure_kernels_register() {
        let mut reg = Registry::new();
        reg.register("double", |ctx: &mut FnThreadCtx<'_>| {
            for (i, o) in ctx.inputs.iter().zip(ctx.outputs.iter_mut()) {
                for (a, b) in i.bytes.iter().zip(o.bytes.iter_mut()) {
                    *b = a.wrapping_mul(2);
                }
            }
            Ok(())
        });
        assert!(reg.get("double").is_some());
        assert!(reg.get("nope").is_none());
        assert!(reg.names().contains(&"id".to_string()));
    }

    #[test]
    fn stripe_zeroed_sizes() {
        let s = StripePayload::zeroed(vec![2, 3], 8);
        assert_eq!(s.bytes.len(), 48);
        assert_eq!(s.element_count(), 6);
    }

    #[test]
    fn errors_render() {
        let e = RuntimeError::UnknownFunction {
            block: "b".into(),
            function: "f".into(),
        };
        assert!(e.to_string().contains("unknown function"));
    }
}
