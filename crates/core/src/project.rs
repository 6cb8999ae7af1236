//! The project facade: the paper's four-step experimental flow in one type.

use crate::codegen::{generate, CodegenError, Placement};
use crate::emit::render_glue_source;
use crate::model_io::{model_from_sexpr, ModelIoError};
use sage_atot::{GaConfig, Scheduler, TaskGraph, TaskMapping};
use sage_fabric::{MachineSpec, TimePolicy};
use sage_model::{AppGraph, HardwareShelf, HardwareSpec};
use sage_runtime::{execute, Execution, GlueProgram, Registry, RuntimeError, RuntimeOptions};

/// A SAGE design project: application model + target hardware + function
/// registry.
pub struct Project {
    /// The application model (possibly hierarchical).
    pub app: AppGraph,
    /// The target hardware model.
    pub hardware: HardwareSpec,
    /// Kernel registry binding shelf names to implementations.
    pub registry: Registry,
}

/// Errors from the end-to-end flow.
#[derive(Debug)]
pub enum ProjectError {
    /// Generation failed.
    Codegen(CodegenError),
    /// Execution failed.
    Runtime(RuntimeError),
}

impl std::fmt::Display for ProjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectError::Codegen(e) => write!(f, "{e}"),
            ProjectError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProjectError {}

impl From<CodegenError> for ProjectError {
    fn from(e: CodegenError) -> Self {
        ProjectError::Codegen(e)
    }
}

impl From<RuntimeError> for ProjectError {
    fn from(e: RuntimeError) -> Self {
        ProjectError::Runtime(e)
    }
}

impl Project {
    /// Creates a project with the default kernel registry.
    pub fn new(app: AppGraph, hardware: HardwareSpec) -> Project {
        Project {
            app,
            hardware,
            registry: Registry::new(),
        }
    }

    /// Loads a project from Designer model text onto the `nodes`-processor
    /// CSPI machine: parse and wrap, nothing else. This is the un-gated
    /// half of [`crate::load`] — for callers handed text that already went
    /// through the gate (a fleet daemon regenerating a submitted job).
    pub fn from_sexpr(src: &str, nodes: usize) -> Result<Project, ModelIoError> {
        let app = model_from_sexpr(src)?;
        Ok(Project::new(app, HardwareShelf::cspi_with_nodes(nodes)))
    }

    /// Step 2 (automatic variant): let AToT's GA choose the task mapping.
    pub fn auto_map(&self, ga: &GaConfig) -> Result<TaskMapping, CodegenError> {
        let flat = self.app.flatten()?;
        sage_model::validate(&flat)?;
        let tg = TaskGraph::from_model(&flat);
        let scheduler = Scheduler::new(&tg, &self.hardware)?;
        Ok(sage_atot::ga::optimize(&tg, &scheduler, ga).mapping)
    }

    /// Step 3: auto-generate the glue program and its source rendering.
    pub fn generate(&self, placement: &Placement) -> Result<(GlueProgram, String), CodegenError> {
        let program = generate(&self.app, &self.hardware, placement)?;
        let source = render_glue_source(&program);
        Ok((program, source))
    }

    /// Step 4: execute a generated program for `iterations` data sets.
    pub fn execute(
        &self,
        program: &GlueProgram,
        policy: TimePolicy,
        options: &RuntimeOptions,
        iterations: u32,
    ) -> Result<Execution, ProjectError> {
        let machine = MachineSpec::from_hardware(&self.hardware);
        Ok(execute(
            program,
            &machine,
            policy,
            &self.registry,
            options,
            iterations,
        )?)
    }

    /// The whole §3.3 flow: generate with the given placement, execute,
    /// return (execution, generated source).
    pub fn run(
        &self,
        placement: &Placement,
        policy: TimePolicy,
        options: &RuntimeOptions,
        iterations: u32,
    ) -> Result<(Execution, String), ProjectError> {
        let (program, source) = self.generate(placement)?;
        let exec = self.execute(&program, policy, options, iterations)?;
        Ok((exec, source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_runtime::FnThreadCtx;

    fn project() -> Project {
        let mut p = Project::new(
            crate::codegen::tests::demo_app(4),
            HardwareShelf::cspi_with_nodes(4),
        );
        p.registry
            .register("test.fill", |ctx: &mut FnThreadCtx<'_>| {
                for o in ctx.outputs.iter_mut() {
                    for (i, b) in o.bytes.iter_mut().enumerate() {
                        *b = (ctx.thread as u8).wrapping_add(i as u8);
                    }
                }
                Ok(())
            });
        p
    }

    #[test]
    fn end_to_end_aligned() {
        let p = project();
        let (exec, source) = p
            .run(
                &Placement::Aligned,
                TimePolicy::Virtual,
                &RuntimeOptions::paper_faithful(),
                3,
            )
            .unwrap();
        assert_eq!(exec.iterations, 3);
        assert!(exec.report.makespan > 0.0);
        assert!(source.contains("sage_function_table"));
        assert_eq!(exec.results.len(), 3); // single-threaded sink, 3 iters
    }

    #[test]
    fn end_to_end_with_atot_mapping() {
        let p = project();
        let ga = GaConfig {
            population: 16,
            generations: 15,
            ..GaConfig::default()
        };
        let mapping = p.auto_map(&ga).unwrap();
        let (exec, _) = p
            .run(
                &Placement::Tasks(mapping),
                TimePolicy::Virtual,
                &RuntimeOptions::optimized(),
                1,
            )
            .unwrap();
        assert!(exec.report.makespan > 0.0);
    }
}
