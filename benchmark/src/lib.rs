//! The repository's benchmark as a library: the binary in `main.rs` is the
//! command line over it, and `tests/quick.rs` reads its metric table and
//! its JSON reader. See `benchmark/README.md`.

pub mod gen;
pub mod json;
pub mod measure;
pub mod micro;
pub mod rigs;
pub mod rng;
pub mod run;
pub mod spec;
pub mod speed;
pub mod stats;
pub mod timed;
