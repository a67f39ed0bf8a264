//! `benchpark-yamlite` — a YAML-subset parser and emitter.
//!
//! Benchpark's entire configuration surface is YAML: Spack environment manifests
//! (`spack.yaml`), system package/compiler configuration (`packages.yaml`,
//! `compilers.yaml`), Ramble workspace configuration (`ramble.yaml`), scheduler
//! variables (`variables.yaml`), and CI pipelines (`.gitlab-ci.yml`). This crate
//! implements the subset of YAML those files use, so the configuration texts
//! printed in the paper (Figures 3, 4, 9, 10, 12) parse verbatim:
//!
//! * block mappings and block sequences with indentation-based nesting,
//! * sequences at the same indentation level as their parent key,
//! * flow sequences (`['8', '4']`) and flow mappings (`{a: 1}`),
//! * plain, single-quoted and double-quoted scalars,
//! * scalar tag inference (null / bool / int / float / string),
//! * comments and blank lines,
//! * a deterministic emitter that round-trips through the parser.
//!
//! It deliberately does not implement anchors, aliases, tags, multi-document
//! streams, or block scalars — none of which Benchpark configs use.
//!
//! # Example
//!
//! ```
//! use benchpark_yamlite::{parse, Value};
//!
//! let doc = parse("spack:\n  specs: [amg2023+caliper]\n  view: true\n").unwrap();
//! let specs = doc.get_path(&["spack", "specs"]).unwrap();
//! assert_eq!(specs.as_seq().unwrap()[0].as_str(), Some("amg2023+caliper"));
//! assert_eq!(doc.get_path(&["spack", "view"]).unwrap().as_bool(), Some(true));
//! ```

mod emitter;
mod error;
mod json;
mod parser;
mod span;
mod value;

pub use emitter::emit;
pub use error::{ParseError, Result};
pub use json::{emit_json, json_number, json_string, parse_json, JsonCursor, Token};
pub use parser::{parse, parse_spanned};
pub use span::{Span, SpannedEntry, SpannedMap, SpannedNode, SpannedValue};
pub use value::{Map, Value};

/// Deepest collection nesting [`parse`] and [`parse_json`] accept; deeper
/// input is an error, not a stack overflow. The documents this workspace
/// reads and writes (configs, ledger records, status snapshots, bench
/// reports, trace exports) nest fewer than ten levels.
pub(crate) const MAX_DEPTH: usize = 128;

#[cfg(test)]
mod tests;
