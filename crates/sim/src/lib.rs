//! Discrete-event simulation core for NVMetro.
//!
//! The paper evaluates NVMetro on a physical testbed (Dell R420 servers, a
//! Samsung 970 EVO Plus, Infiniband). This crate replaces the testbed's
//! *clock* with a virtual one: every active component (router worker, UIF
//! thread, kernel stack, SSD, workload job) is an [`Actor`] stepped by the
//! [`Executor`] in virtual nanoseconds, with per-actor CPU accounting that
//! reproduces the paper's CPU-consumption figures (Figs. 11-13).
//!
//! Components are written as poll-driven state machines, so the *same*
//! implementation can also be driven by real OS threads (see
//! `nvmetro-core` threading); only the notion of time differs.
//!
//! The [`cost`] module is the single home of every calibration constant used
//! by the virtual-time evaluation, as promised in `DESIGN.md` §8.

pub mod cost;
mod executor;
mod rng;
mod station;
mod thread;
mod time;

pub use executor::{Actor, CpuMode, Executor, Progress, RunReport};
pub use rng::SimRng;
pub use station::Station;
pub use thread::ActorThread;
pub use time::{Ns, MS, SEC, US};
