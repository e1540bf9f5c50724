//! # ppp-ir: a compact compiler IR for path profiling
//!
//! This crate provides the intermediate representation that the whole PPP
//! reproduction (Bond & McKinley, *Practical Path Profiling for Dynamic
//! Optimizers*, CGO 2005) is built on. It plays the role of Scale's
//! low-level IR in the paper: a register machine over `i64` values with
//! explicit basic blocks, two-way branches, multi-way switches, calls, and
//! a synthetic-input intrinsic ([`Inst::Rand`]) standing in for program
//! input.
//!
//! On top of the data structures it provides the standard analyses path
//! profiling needs:
//!
//! - [`Cfg`]: successor/predecessor views and reverse postorder;
//! - [`Dominators`]: Cooper–Harvey–Kennedy dominator trees;
//! - [`LoopForest`]: natural loops with nesting, entries, and exits;
//! - [`transform`]: single-exit normalization and edge splitting (used by
//!   instrumenters to place edge instrumentation);
//! - [`FuncEdgeProfile`]/[`ModuleEdgeProfile`]: edge profiles, the cheap
//!   profile the paper's techniques are guided by;
//! - [`delta`]: the sparse binary encoding of streamed profile deltas;
//! - a [`verify`](verify_module)r and a pretty-printer.
//!
//! # Examples
//!
//! Build a function with [`FunctionBuilder`] and print it:
//!
//! ```
//! use ppp_ir::{FunctionBuilder, Module, BinOp, print_module};
//!
//! let mut b = FunctionBuilder::new("double", 1);
//! let x = b.param(0);
//! let two = b.constant(2);
//! let y = b.binary(BinOp::Mul, x, two);
//! b.ret(Some(y));
//!
//! let mut module = Module::new();
//! module.add_function(b.finish());
//! let text = print_module(&module);
//! assert!(text.contains("r2 = mul r0, r1"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cfg;
pub mod delta;
mod display;
mod dom;
mod function;
mod ids;
mod inst;
mod loops;
mod module;
mod path;
mod persist_v2;
mod profile;
pub mod transform;
mod verify;
pub mod wire;
mod witness;

pub use cfg::{reachable_blocks, Cfg};
pub use delta::{
    decode_edge_records, decode_path_records, encode_edge_delta, encode_path_delta, DeltaError,
    EdgeRecords, PathRecords, EDGE_DELTA_MAGIC, PATH_DELTA_MAGIC,
};
pub use display::{print_function, print_module};
pub use dom::Dominators;
pub use function::{Block, Function, FunctionBuilder};
pub use ids::{BlockId, EdgeRef, FuncId, Reg, TableId};
pub use inst::{BinOp, Inst, ProfOp, Terminator, UnOp};
pub use loops::{analyze_loops, LoopForest, NaturalLoop};
pub use module::{Module, TableDecl, TableKind};
pub use path::{FuncPathProfile, ModulePathProfile, PathKey, PathStats};
pub use persist_v2::{
    crc32, read_edge_profile_stale, read_edge_profile_v2, read_path_profile_v2,
    salvage_edge_profile, salvage_path_profile, write_edge_profile_v2, write_path_profile_v2,
    ProfileLoadError, ProfileParseError, Salvaged, SectionFault, StaleReport, PROFILE_MAGIC,
};
pub use profile::{
    FlowViolation, FlowViolationKind, FuncEdgeProfile, ModuleEdgeProfile, ProfileStats,
};
pub use verify::{verify_module, VerifyError};
pub use wire::{
    decode_frame, decode_stream, encode_frame, encode_reject_payload, encode_seq_payload,
    encode_seq_payload_traced, split_reject_payload, split_seq_payload, split_trace_context, Frame,
    FrameKind, TraceContext, WireError, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
    SEQ_HEADER_LEN, TRACE_CONTEXT_LEN, TRACE_CONTEXT_MAGIC,
};
pub use witness::{
    InlineStep, InlineWitness, ScalarFuncWitness, ScalarWitness, TransformWitness, UnrollMode,
    UnrollWitness, UnrolledLoop,
};
