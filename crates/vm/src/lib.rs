//! # ppp-vm: deterministic execution substrate for the PPP reproduction
//!
//! The paper measures path-profiling overhead on an AlphaServer running
//! SPEC2000. This crate is the substitute substrate: a deterministic
//! interpreter for [`ppp_ir`] modules that
//!
//! - executes instrumented or uninstrumented code and charges each
//!   operation per a [`CostModel`] whose ratios follow the paper (hash
//!   counter update ≈ 5× array update; poison checks cost one comparison),
//! - maintains the runtime path-counter tables ([`ProfileStore`]),
//!   including the 701-slot × 3-probe hash table with a lost-path counter
//!   (§7.4),
//! - optionally traces execution exactly, producing the reference edge
//!   profile and ground-truth path profile that accuracy and coverage are
//!   measured against (§6),
//! - reports function entries, taken edges and returns to a [`Sink`]:
//!   one run of an uninstrumented module drives [`PlanConsumers`] in
//!   place of the instrumented run of each of a set of plans, and
//! - draws program input from a seeded stream so instrumented and
//!   uninstrumented runs of the same seed follow bit-identical control
//!   flow (the paper's *self advice* setting, §7.2).
//!
//! # Examples
//!
//! ```
//! use ppp_ir::{FunctionBuilder, Module, BinOp};
//! use ppp_vm::{run, RunOptions};
//!
//! // A tiny program: sum 0..10 and emit the total.
//! let mut b = FunctionBuilder::new("main", 0);
//! let ten = b.constant(10);
//! let i = b.copy(ten);
//! let acc = b.constant(0);
//! let (hdr, body, exit) = (b.new_block(), b.new_block(), b.new_block());
//! b.jump(hdr);
//! b.switch_to(hdr);
//! b.branch(i, body, exit);
//! b.switch_to(body);
//! let one = b.constant(1);
//! b.binary_to(acc, BinOp::Add, acc, i);
//! b.binary_to(i, BinOp::Sub, i, one);
//! b.jump(hdr);
//! b.switch_to(exit);
//! b.emit(acc);
//! b.ret(Some(acc));
//! let mut m = Module::new();
//! m.add_function(b.finish());
//!
//! let result = run(&m, "main", &RunOptions::default().traced())?;
//! let paths = result.path_profile.expect("traced run records paths");
//! assert_eq!(paths.func(ppp_ir::FuncId(0)).total_unit_flow(), 11);
//! # Ok::<(), ppp_vm::VmError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost;
mod host;
mod machine;
mod rng;
mod sink;
mod storage;
mod trace;

pub use cost::CostModel;
pub use host::{Checkout, VmHost};
pub use machine::{run, run_with, HaltReason, RunOptions, RunResult, VmError};
pub use rng::SplitMix64;
pub use sink::{EdgeCounter, OpSite, PlanConsumers, Sink};
pub use storage::{CounterTable, ProfileStore};
pub use trace::{EdgeClassifier, EdgeKind, PathCursor, ProfileDelta, TraceFaults, Tracer};
