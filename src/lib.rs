//! # momsim — reproduction of "Exploiting a New Level of DLP in Multimedia Applications"
//!
//! This facade crate re-exports the whole workspace so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`isa`] — packed sub-word arithmetic, scalar/MMX/MDMX instruction sets,
//!   register files, memory images and dynamic traces;
//! * [`core`] — the MOM matrix ISA, programs, the functional interpreter, the
//!   register-file area model and opcode inventories;
//! * [`cpu`] — the out-of-order superscalar timing simulator;
//! * [`mem`] — perfect, conventional, multi-address, vector-cache and
//!   collapsing-buffer memory systems;
//! * [`kernels`] — the eight multimedia kernels in all four ISAs with golden
//!   references and synthetic workloads;
//! * [`apps`] — the five Mediabench-like applications;
//! * [`lab`] — the parallel experiment-orchestration engine (declarative
//!   specs, multi-threaded runner, `BENCH_*.json` results, baseline diffs).
//!
//! See the `examples/` directory for runnable end-to-end walkthroughs, the
//! `momlab` CLI (`momlab run <experiment>`) for regenerating every table and
//! figure of the paper as text and machine-readable JSON, and
//! `EXPERIMENTS.md` for the result schema.

pub use mom_apps as apps;
pub use mom_core as core;
pub use mom_cpu as cpu;
pub use mom_isa as isa;
pub use mom_kernels as kernels;
pub use mom_lab as lab;
pub use mom_mem as mem;
