//! # clonos-sim — deterministic discrete-event simulation substrate
//!
//! The Clonos paper evaluates on a 150-node Kubernetes cluster. This crate is
//! the substitute substrate: a deterministic discrete-event simulator with a
//! virtual clock, seeded randomness, actor service-time accounting, network
//! links with latency and jitter, and failure injection.
//!
//! Determinism is the point: a run is a pure function of its seed, so the
//! test suite can verify exactly-once semantics *exactly* — something the
//! paper's physical testbed cannot do. Nondeterminism *within the modelled
//! system* (arrival order across channels, flush-timer interleavings,
//! processing-time reads) is induced by seeded jitter, so different seeds
//! exercise the nondeterminism classes of §4.1 of the paper.
//!
//! The simulator is intentionally decoupled from the entities it drives: it
//! owns only the event queue and the clock. The embedding system (the stream
//! engine in `clonos-engine`) owns its actors and dispatches events popped
//! from [`Simulation::pop`].

pub mod chaos;
pub mod events;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod service;
pub mod time;

pub use chaos::{ChaosEvent, ChaosInjection, ChaosPlan, ChaosSpace};
pub use events::{ActorId, Delivery, Scheduler, Simulation};
pub use metrics::TimeSeries;
pub use net::Link;
pub use rng::SimRng;
pub use service::ServiceQueue;
pub use time::{VirtualDuration, VirtualTime};
