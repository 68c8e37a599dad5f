//! The pass-pipeline architecture of the compiler.
//!
//! Compilation is organized as a sequence of [`Pass`]es over a shared
//! [`CompileContext`] (circuit + machine + configuration + accumulated
//! artifacts), mirroring how production toolchains structure their
//! backends. The standard pipeline is
//!
//! `Decompose → Place → Route → Schedule → Emit → Estimate`
//!
//! where placement dispatches through the [`PlacementRegistry`]
//! (rehoming the paper's Table-1 algorithms as interchangeable
//! [`PlacementStrategy`](crate::PlacementStrategy) implementations) and
//! routing installs a [`RoutingPolicy`] — the paper's swap-out/swap-back
//! model by default, or permutation tracking as an opt-in scenario. Every
//! pass is timed; the per-pass breakdown is attached to the produced
//! [`CompiledCircuit`](crate::CompiledCircuit).
//!
//! # Writing a custom pass
//!
//! A pass reads and writes context artifacts. For example, a lint pass
//! that rejects schedules violating coherence windows:
//!
//! ```
//! use nisq_core::pipeline::{CompileContext, Pass, Pipeline};
//! use nisq_core::{CompileError, CompilerConfig};
//! use nisq_ir::Benchmark;
//! use nisq_machine::Machine;
//!
//! #[derive(Debug)]
//! struct CoherenceLint;
//!
//! impl Pass for CoherenceLint {
//!     fn name(&self) -> &'static str {
//!         "coherence-lint"
//!     }
//!     fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
//!         let schedule = ctx.require_schedule("coherence-lint")?;
//!         assert!(schedule.within_coherence(), "schedule breaks coherence");
//!         Ok(())
//!     }
//! }
//!
//! let machine = Machine::ibmq16_on_day(1, 0);
//! let mut pipeline = Pipeline::standard();
//! pipeline.push(CoherenceLint);
//! let mut ctx = CompileContext::new(&machine, CompilerConfig::greedy_e(),
//!                                   Benchmark::Bv4.circuit());
//! pipeline.run(&mut ctx).unwrap();
//! assert!(ctx.physical().is_some());
//! assert_eq!(ctx.timings().last().unwrap().pass, "coherence-lint");
//! ```

use crate::cache::PlacementCache;
use crate::config::CompilerConfig;
use crate::error::CompileError;
use crate::mapping::PlacementRegistry;
use crate::metrics::{self, EstimateOptions, ReliabilityEstimate};
use nisq_ir::{Circuit, Gate, GateKind, Qubit};
use nisq_machine::Machine;
use nisq_opt::{
    Placement, RouteSelection, RoutedOp, RoutingPolicy, Schedule, Scheduler, SchedulerConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The routing decision installed by the [`RoutePass`]: the requested route
/// selection, the selection actually usable on the target topology, and the
/// swap-handling policy.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedRouting {
    /// The selection the configuration asked for.
    pub requested: RouteSelection,
    /// The selection in effect (grid-only selections degrade to best-path
    /// routing on topologies without a grid layout).
    pub effective: RouteSelection,
    /// The swap-handling policy (swap-back or permutation tracking).
    pub policy: &'static dyn RoutingPolicy,
}

/// Wall-clock time spent in one pass.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass name.
    pub pass: &'static str,
    /// Time spent in its `run`.
    pub elapsed: Duration,
}

/// Everything a compilation accumulates: the input circuit and target
/// machine, the configuration, and the artifacts produced by the passes
/// that have run so far.
#[derive(Debug)]
pub struct CompileContext<'m> {
    machine: &'m Machine,
    config: CompilerConfig,
    source_name: String,
    circuit: Circuit,
    placement: Option<Placement>,
    routing: Option<ResolvedRouting>,
    schedule: Option<Schedule>,
    physical: Option<Circuit>,
    estimate: Option<ReliabilityEstimate>,
    timings: Vec<PassTiming>,
}

impl<'m> CompileContext<'m> {
    /// Creates a context for compiling `circuit` onto `machine`.
    pub fn new(machine: &'m Machine, config: CompilerConfig, circuit: Circuit) -> Self {
        CompileContext {
            machine,
            config,
            source_name: circuit.name().to_string(),
            circuit,
            placement: None,
            routing: None,
            schedule: None,
            physical: None,
            estimate: None,
            timings: Vec::new(),
        }
    }

    /// The target machine.
    pub fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// The compiler configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// The name of the original input circuit (preserved even when a
    /// rewriting pass replaces the working circuit).
    pub fn source_name(&self) -> &str {
        &self.source_name
    }

    /// The working circuit (after decomposition).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Replaces the working circuit (used by rewriting passes).
    pub fn set_circuit(&mut self, circuit: Circuit) {
        self.circuit = circuit;
    }

    /// The placement, once the place pass has run.
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_ref()
    }

    /// Installs the placement artifact.
    pub fn set_placement(&mut self, placement: Placement) {
        self.placement = Some(placement);
    }

    /// The routing decision, once the route pass has run.
    pub fn routing(&self) -> Option<&ResolvedRouting> {
        self.routing.as_ref()
    }

    /// Installs the routing decision.
    pub fn set_routing(&mut self, routing: ResolvedRouting) {
        self.routing = Some(routing);
    }

    /// The schedule, once the schedule pass has run.
    pub fn schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// Installs the schedule artifact.
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = Some(schedule);
    }

    /// The emitted physical circuit, once the emit pass has run.
    pub fn physical(&self) -> Option<&Circuit> {
        self.physical.as_ref()
    }

    /// Installs the physical circuit artifact.
    pub fn set_physical(&mut self, physical: Circuit) {
        self.physical = Some(physical);
    }

    /// The reliability estimate, once the estimate pass has run.
    pub fn estimate(&self) -> Option<&ReliabilityEstimate> {
        self.estimate.as_ref()
    }

    /// Installs the estimate artifact.
    pub fn set_estimate(&mut self, estimate: ReliabilityEstimate) {
        self.estimate = Some(estimate);
    }

    /// Per-pass timings, in execution order.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// The placement, or a [`CompileError::MissingArtifact`] naming the
    /// calling pass.
    ///
    /// # Errors
    ///
    /// Returns an error when the place pass has not run yet.
    pub fn require_placement(&self, pass: &'static str) -> Result<&Placement, CompileError> {
        self.placement
            .as_ref()
            .ok_or(CompileError::MissingArtifact {
                pass,
                artifact: "placement",
            })
    }

    /// The routing decision, or a [`CompileError::MissingArtifact`].
    ///
    /// # Errors
    ///
    /// Returns an error when the route pass has not run yet.
    pub fn require_routing(&self, pass: &'static str) -> Result<ResolvedRouting, CompileError> {
        self.routing.ok_or(CompileError::MissingArtifact {
            pass,
            artifact: "routing decision",
        })
    }

    /// The schedule, or a [`CompileError::MissingArtifact`].
    ///
    /// # Errors
    ///
    /// Returns an error when the schedule pass has not run yet.
    pub fn require_schedule(&self, pass: &'static str) -> Result<&Schedule, CompileError> {
        self.schedule.as_ref().ok_or(CompileError::MissingArtifact {
            pass,
            artifact: "schedule",
        })
    }

    /// The physical circuit, or a [`CompileError::MissingArtifact`].
    ///
    /// # Errors
    ///
    /// Returns an error when the emit pass has not run yet.
    pub fn require_physical(&self, pass: &'static str) -> Result<&Circuit, CompileError> {
        self.physical.as_ref().ok_or(CompileError::MissingArtifact {
            pass,
            artifact: "physical circuit",
        })
    }

    /// Consumes the context into the artifacts of a finished compilation.
    pub(crate) fn finish(self) -> Result<FinishedCompilation, CompileError> {
        Ok(FinishedCompilation {
            program_name: self.source_name,
            algorithm: self.config.algorithm,
            placement: self.placement.ok_or(CompileError::MissingArtifact {
                pass: "finish",
                artifact: "placement",
            })?,
            schedule: self.schedule.ok_or(CompileError::MissingArtifact {
                pass: "finish",
                artifact: "schedule",
            })?,
            physical: self.physical.ok_or(CompileError::MissingArtifact {
                pass: "finish",
                artifact: "physical circuit",
            })?,
            estimate: self.estimate.ok_or(CompileError::MissingArtifact {
                pass: "finish",
                artifact: "reliability estimate",
            })?,
            timings: self.timings,
        })
    }
}

/// The artifacts of a completed pipeline run, consumed by
/// [`CompiledCircuit`](crate::CompiledCircuit).
pub(crate) struct FinishedCompilation {
    pub program_name: String,
    pub algorithm: crate::config::Algorithm,
    pub placement: Placement,
    pub schedule: Schedule,
    pub physical: Circuit,
    pub estimate: ReliabilityEstimate,
    pub timings: Vec<PassTiming>,
}

/// One stage of the compilation pipeline, operating on a shared
/// [`CompileContext`].
///
/// See the [module documentation](self) for a worked custom-pass example.
pub trait Pass: std::fmt::Debug + Send + Sync {
    /// The pass name, used in timings and error messages.
    fn name(&self) -> &'static str;

    /// Runs the pass, reading and producing context artifacts.
    ///
    /// # Errors
    ///
    /// Returns an error if the pass cannot produce its artifact (invalid
    /// configuration, circuit too large, missing upstream artifact, ...).
    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError>;
}

/// An ordered sequence of passes with per-pass timing.
#[derive(Debug)]
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn empty() -> Self {
        Pipeline { passes: Vec::new() }
    }

    /// The standard pipeline:
    /// `Decompose → Place → Route → Schedule → Emit → Estimate`, with the
    /// Table-1 placement algorithms registered.
    pub fn standard() -> Self {
        Pipeline::with_registry(PlacementRegistry::standard())
    }

    /// The standard pipeline with placements memoized in `cache`
    /// (shareable across pipelines and threads): repeat compiles of an
    /// identical `(circuit, machine-day, config)` triple skip the placement
    /// strategy entirely.
    pub fn standard_with_placement_cache(cache: Arc<PlacementCache>) -> Self {
        let mut p = Pipeline::empty();
        p.push(DecomposePass);
        p.push(PlacePass {
            registry: PlacementRegistry::standard(),
            cache: Some(cache),
        });
        p.push(RoutePass);
        p.push(SchedulePass);
        p.push(EmitPass);
        p.push(EstimatePass);
        p
    }

    /// The standard pipeline with a custom placement registry (additional
    /// strategies, replaced defaults, ...).
    pub fn with_registry(registry: PlacementRegistry) -> Self {
        let mut p = Pipeline::empty();
        p.push(DecomposePass);
        p.push(PlacePass {
            registry,
            cache: None,
        });
        p.push(RoutePass);
        p.push(SchedulePass);
        p.push(EmitPass);
        p.push(EstimatePass);
        p
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// The registered passes, in order.
    pub fn passes(&self) -> impl Iterator<Item = &dyn Pass> {
        self.passes.iter().map(|p| p.as_ref())
    }

    /// Runs every pass in order, recording per-pass wall-clock time in the
    /// context.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first pass error.
    pub fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        for pass in &self.passes {
            let start = Instant::now();
            pass.run(ctx)?;
            ctx.timings.push(PassTiming {
                pass: pass.name(),
                elapsed: start.elapsed(),
            });
        }
        Ok(())
    }
}

/// Lowers the circuit into the hardware gate set. The benchmarks arrive
/// already decomposed (ScaffCC's job in the paper), so by default this pass
/// only normalizes program-level SWAP gates when the configuration opts in
/// via [`CompilerConfig::decompose_swaps`]; high-level gates added to the
/// IR in the future get lowered here.
#[derive(Debug, Clone, Copy)]
pub struct DecomposePass;

impl Pass for DecomposePass {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        if ctx.config().decompose_swaps && ctx.circuit().iter().any(|g| g.kind() == GateKind::Swap)
        {
            ctx.set_circuit(ctx.circuit().expand_swaps());
        }
        Ok(())
    }
}

/// Computes the initial placement by dispatching to the
/// [`PlacementStrategy`](crate::mapping::PlacementStrategy) registered for
/// the configured algorithm, optionally memoizing results in a shared
/// [`PlacementCache`] keyed on the `(circuit, machine-day, config)`
/// fingerprints.
#[derive(Debug)]
pub struct PlacePass {
    /// The strategies this pass dispatches over.
    pub registry: PlacementRegistry,
    /// Shared memo of placement results; `None` disables caching (the
    /// default for [`Pipeline::standard`]).
    pub cache: Option<Arc<PlacementCache>>,
}

impl Pass for PlacePass {
    fn name(&self) -> &'static str {
        "place"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        if ctx.circuit().num_qubits() > ctx.machine().num_qubits() {
            return Err(CompileError::CircuitTooLarge {
                program_qubits: ctx.circuit().num_qubits(),
                hardware_qubits: ctx.machine().num_qubits(),
            });
        }
        if let Some(cache) = &self.cache {
            if let Some(placement) = cache.lookup(ctx.circuit(), ctx.machine(), ctx.config()) {
                ctx.set_placement(placement);
                return Ok(());
            }
        }
        let name = ctx.config().algorithm.name();
        let strategy = self
            .registry
            .get(name)
            .ok_or_else(|| CompileError::UnknownPlacement {
                name: name.to_string(),
            })?;
        let placement = strategy.place(ctx.circuit(), ctx.machine(), ctx.config())?;
        if let Some(cache) = &self.cache {
            cache.insert(
                ctx.circuit(),
                ctx.machine(),
                ctx.config(),
                placement.clone(),
            );
        }
        ctx.set_placement(placement);
        Ok(())
    }
}

/// Resolves the routing decision: the configured [`RouteSelection`]
/// (degraded to best-path routing when it needs a grid the topology does
/// not have) and the [`RoutingPolicy`] picked by
/// [`CompilerConfig::swap_handling`].
#[derive(Debug, Clone, Copy)]
pub struct RoutePass;

impl Pass for RoutePass {
    fn name(&self) -> &'static str {
        "route"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let requested = ctx.config().routing;
        let effective = requested.effective_on(ctx.machine().topology());
        ctx.set_routing(ResolvedRouting {
            requested,
            effective,
            policy: ctx.config().swap_handling.policy(),
        });
        Ok(())
    }
}

/// Runs the routing-aware list scheduler under the installed routing
/// policy, producing start times, durations, routes and the final layout.
#[derive(Debug, Clone, Copy)]
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let routing = ctx.require_routing("schedule")?;
        let placement = ctx.require_placement("schedule")?;
        let config = ctx.config();
        let scheduler_config = SchedulerConfig {
            selection: routing.effective,
            calibration_aware: config.calibration_aware(),
            uniform_cnot_slots: config.uniform_cnot_slots,
            static_coherence_slots: config.static_coherence_slots,
        };
        let scheduler = Scheduler::new(ctx.machine(), scheduler_config);
        let schedule = scheduler.schedule_with(ctx.circuit(), placement, routing.policy)?;
        ctx.set_schedule(schedule);
        Ok(())
    }
}

/// Emits the hardware-level circuit: every gate is rewritten onto hardware
/// qubit indices and every routed two-qubit gate is materialized through
/// the routing policy — the single place where swap round-trips (or their
/// permutation-tracking elision) become physical gates.
#[derive(Debug, Clone, Copy)]
pub struct EmitPass;

impl Pass for EmitPass {
    fn name(&self) -> &'static str {
        "emit"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let routing = ctx.require_routing("emit")?;
        let schedule = ctx.require_schedule("emit")?;
        let circuit = ctx.circuit();
        let machine = ctx.machine();

        let mut physical = Circuit::with_clbits(machine.num_qubits(), circuit.num_clbits());
        physical.set_name(format!("{}-physical", circuit.name()));
        let mut ops = Vec::new();

        // Emission needs no live layout of its own: each scheduled entry
        // already records its route and resolved hardware operands, and
        // entries appear in issue order, so replaying them reproduces
        // exactly the sequence the scheduler modelled.
        for entry in &schedule.gates {
            let gate = &circuit.gates()[entry.gate_index];
            match gate.kind() {
                GateKind::Cnot | GateKind::Swap => {
                    let Some(route) = entry.route.as_ref() else {
                        // A route-less SWAP was elided by the routing
                        // policy as a pure layout relabeling; later
                        // entries' resolved operands already account for
                        // it, so there is nothing physical to emit.
                        debug_assert_eq!(gate.kind(), GateKind::Swap);
                        continue;
                    };
                    ops.clear();
                    routing.policy.realize(route, &mut ops);
                    for op in &ops {
                        match *op {
                            RoutedOp::Swap(a, b) => {
                                physical.swap(Qubit(a.0), Qubit(b.0));
                            }
                            RoutedOp::Gate(a, b) => {
                                if gate.kind() == GateKind::Cnot {
                                    physical.cnot(Qubit(a.0), Qubit(b.0));
                                } else {
                                    physical.swap(Qubit(a.0), Qubit(b.0));
                                }
                            }
                        }
                    }
                }
                GateKind::Measure => {
                    physical.measure(Qubit(entry.hw[0].0), gate.clbits()[0]);
                }
                GateKind::Barrier => {
                    let qs: Vec<Qubit> = entry.hw.iter().map(|h| Qubit(h.0)).collect();
                    physical.push(Gate::barrier(qs));
                }
                kind => {
                    physical.push(Gate::single(kind, Qubit(entry.hw[0].0)));
                }
            }
        }
        ctx.set_physical(physical);
        Ok(())
    }
}

/// Computes the analytic reliability estimate (the paper's objective
/// value) for the scheduled circuit.
#[derive(Debug, Clone, Copy)]
pub struct EstimatePass;

impl Pass for EstimatePass {
    fn name(&self) -> &'static str {
        "estimate"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let placement = ctx.require_placement("estimate")?;
        let schedule = ctx.require_schedule("estimate")?;
        let estimate = metrics::estimate(
            ctx.circuit(),
            placement,
            schedule,
            ctx.machine(),
            EstimateOptions::default(),
        );
        ctx.set_estimate(estimate);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisq_ir::Benchmark;
    use nisq_opt::SwapHandling;

    fn machine() -> Machine {
        Machine::ibmq16_on_day(8, 0)
    }

    #[test]
    fn standard_pipeline_produces_every_artifact() {
        let m = machine();
        let mut ctx = CompileContext::new(&m, CompilerConfig::greedy_e(), Benchmark::Bv4.circuit());
        Pipeline::standard().run(&mut ctx).unwrap();
        assert!(ctx.placement().is_some());
        assert!(ctx.routing().is_some());
        assert!(ctx.schedule().is_some());
        assert!(ctx.physical().is_some());
        assert!(ctx.estimate().is_some());
        let names: Vec<&str> = ctx.timings().iter().map(|t| t.pass).collect();
        assert_eq!(
            names,
            vec![
                "decompose",
                "place",
                "route",
                "schedule",
                "emit",
                "estimate"
            ]
        );
    }

    #[test]
    fn passes_report_missing_artifacts() {
        let m = machine();
        let mut ctx = CompileContext::new(&m, CompilerConfig::qiskit(), Benchmark::Bv4.circuit());
        let err = SchedulePass.run(&mut ctx).unwrap_err();
        assert!(matches!(err, CompileError::MissingArtifact { .. }));
        let err = EmitPass.run(&mut ctx).unwrap_err();
        assert!(matches!(
            err,
            CompileError::MissingArtifact {
                artifact: "routing decision",
                ..
            }
        ));
    }

    #[test]
    fn route_pass_degrades_grid_selections_off_grid() {
        let ring = Machine::from_spec(nisq_machine::TopologySpec::Ring { n: 8 }, 1, 0);
        let mut ctx =
            CompileContext::new(&ring, CompilerConfig::qiskit(), Benchmark::Bv4.circuit());
        RoutePass.run(&mut ctx).unwrap();
        let routing = ctx.routing().unwrap();
        assert_eq!(routing.requested, RouteSelection::OneBendPaths);
        assert_eq!(routing.effective, RouteSelection::BestPath);
    }

    #[test]
    fn decompose_pass_expands_swaps_only_on_request() {
        let m = machine();
        let mut circuit = Circuit::new(2);
        circuit.swap(Qubit(0), Qubit(1));
        let untouched = CompilerConfig::qiskit();
        let mut ctx = CompileContext::new(&m, untouched, circuit.clone());
        DecomposePass.run(&mut ctx).unwrap();
        assert_eq!(ctx.circuit().len(), 1);

        let expand = CompilerConfig::qiskit().with_decompose_swaps(true);
        circuit.set_name("swapper");
        let mut ctx = CompileContext::new(&m, expand, circuit);
        DecomposePass.run(&mut ctx).unwrap();
        assert_eq!(ctx.circuit().len(), 3, "SWAP lowered to three CNOTs");
        assert!(ctx.circuit().iter().all(|g| g.kind() == GateKind::Cnot));
        assert_eq!(ctx.source_name(), "swapper", "source name preserved");
    }

    #[test]
    fn permute_elides_adjacent_program_swaps_end_to_end() {
        let m = machine();
        let mut circuit = Circuit::new(2);
        circuit.cnot(Qubit(0), Qubit(1));
        circuit.swap(Qubit(0), Qubit(1));

        let run = |handling| {
            let config = CompilerConfig::greedy_e().with_swap_handling(handling);
            let mut ctx = CompileContext::new(&m, config, circuit.clone());
            Pipeline::standard().run(&mut ctx).unwrap();
            (
                ctx.physical().unwrap().clone(),
                ctx.estimate().unwrap().total(),
            )
        };
        let (permuted, permute_rel) = run(SwapHandling::Permute);
        let (swapped_back, swap_back_rel) = run(SwapHandling::SwapBack);

        // Greedy placement puts both qubits on one edge, so under
        // permutation routing the program SWAP vanishes from the physical
        // circuit entirely — only the CNOT remains — and the reliability
        // estimate strictly improves over paying three CNOTs for it.
        assert_eq!(
            permuted
                .iter()
                .filter(|g| g.kind() == GateKind::Swap)
                .count(),
            0
        );
        assert_eq!(
            permuted
                .iter()
                .filter(|g| g.kind() == GateKind::Cnot)
                .count(),
            1
        );
        assert_eq!(
            swapped_back
                .iter()
                .filter(|g| g.kind() == GateKind::Swap)
                .count(),
            1
        );
        assert!(permute_rel > swap_back_rel);
    }

    #[test]
    fn permutation_policy_rides_the_same_pipeline() {
        let m = machine();
        let config = CompilerConfig::greedy_e().with_swap_handling(SwapHandling::Permute);
        let mut ctx = CompileContext::new(&m, config, Benchmark::Bv8.circuit());
        Pipeline::standard().run(&mut ctx).unwrap();
        let schedule = ctx.schedule().unwrap();
        // No swap-backs: the physical circuit contains exactly the one-way
        // swaps the schedule counted.
        let physical_swaps = ctx
            .physical()
            .unwrap()
            .iter()
            .filter(|g| g.kind() == GateKind::Swap)
            .count();
        assert_eq!(physical_swaps, schedule.swap_count);
    }
}
