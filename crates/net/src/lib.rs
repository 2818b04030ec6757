//! cbf-net: the real-socket runtime for the cbf actors.
//!
//! The deterministic simulator (`cbf-sim`) and this crate drive the
//! *identical, unmodified* `Actor` implementations from
//! `cbf-protocols`. Here a deployment is real OS processes exchanging
//! length-prefixed frames over loopback TCP, steps run against the wall
//! clock, and the scheduler is whatever the kernel does — none of which
//! the paper's model permits to change protocol behaviour. The crate
//! makes that claim checkable:
//!
//! 1. **Run** — [`launch::run_cluster`] spawns one OS process per
//!    server, hosts every client in the launcher, drives a closed-loop
//!    workload, and records every computation step's inputs
//!    ([`record`]).
//! 2. **Replay** — [`replay::replay`] feeds the recorded delivery
//!    order through the deterministic simulator. The sim re-derives
//!    every message *content* from the actors themselves; only the
//!    order (and timer/injection payloads) come from the recording.
//! 3. **Diff** — the replay's history and trace digest must match the
//!    real run's bit for bit. Any divergence — a codec bug, a
//!    non-FIFO delivery, an actor consulting ambient state — is a bug
//!    in one of the runtimes, and exits nonzero.
//!
//! The crate deliberately has no dependency on `World`'s internals
//! outside [`replay`]; the event loop ([`node`]) touches only the
//! public `Ctx::standalone` step API. The snowlint boundary rules pin
//! this down (no sim types in the hot path, no sockets outside this
//! crate).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod frame;
pub mod launch;
pub mod msgid;
pub mod node;
pub mod record;
pub mod replay;

pub use frame::CLIENT_HOST;
pub use launch::{run_cluster, NetConfig, NetRun};
pub use record::Recording;
pub use replay::{replay, replay_and_diff, ReplayReport};

use cbf_protocols::{Topology, WireError};
use std::path::Path;

/// Everything that can go wrong between `fork` and verdict.
#[derive(Debug)]
pub enum NetError {
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// A frame's payload failed to decode.
    Codec(WireError),
    /// The PORT/PEERS bootstrap went wrong.
    Handshake(String),
    /// No message routable to its destination.
    Route(String),
    /// The run stopped making progress.
    Stall(String),
    /// A child process exited abnormally.
    Child {
        /// Which server.
        pid: u32,
        /// Rendered exit status.
        status: String,
    },
    /// A recording file was corrupt or inconsistent.
    Recording(String),
    /// Replay disagreed with the real run — the headline failure.
    Divergence(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Codec(e) => write!(f, "codec: {e}"),
            NetError::Handshake(s) => write!(f, "handshake: {s}"),
            NetError::Route(s) => write!(f, "route: {s}"),
            NetError::Stall(s) => write!(f, "stall: {s}"),
            NetError::Child { pid, status } => {
                write!(f, "server process {pid} exited abnormally: {status}")
            }
            NetError::Recording(s) => write!(f, "recording: {s}"),
            NetError::Divergence(s) => write!(f, "replay divergence: {s}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Every protocol with a `Wire` codec — all 14 — as an array of rows
/// `(key, ProtocolNode::NAME, f::<Node>)` for a function `f` generic
/// over the node type. The one list both sides of a deployment dispatch
/// on: [`node_main`] builds its table of [`node::serve`]s from it, a
/// launcher its table of whatever drives [`run_cluster`]. A macro, not
/// a `const`, so that each binary instantiates only the `f` it names.
#[macro_export]
macro_rules! protocol_table {
    ($($f:ident)::+) => {
        $crate::protocol_table!(@rows ($($f)::+)
            "calvin" => calvin::CalvinNode,
            "contrarian" => contrarian::ContrarianNode,
            "cops" => cops::CopsNode,
            "cops-rw" => cops_rw::CopsRwNode,
            "cops-snow" => cops_snow::CopsSnowNode,
            "cure" => cure::CureNode,
            "eiger" => eiger::EigerNode,
            "gentlerain" => gentlerain::GentleRainNode,
            "naive" => naive::NaiveFast,
            "occult" => occult::OccultNode,
            "pinned" => pinned::PinnedNode,
            "ramp" => ramp::RampNode,
            "spanner" => spanner::SpannerNode,
            "wren" => wren::WrenNode,
        )
    };
    (@rows $f:tt $($key:literal => $module:ident :: $node:ident),* $(,)?) => {
        [$($crate::protocol_table!(@row $f $key ::cbf_protocols::$module::$node)),*]
    };
    (@row ($($f:ident)::+) $key:literal $node:path) => {
        ($key, <$node as ::cbf_protocols::ProtocolNode>::NAME, $($f)::+::<$node>)
    };
}

/// Entry point for a server child process (`repro net-node …`).
///
/// `args` are the words after the subcommand:
/// `<protocol> <pid> <num_servers> <num_clients> <num_keys> <epoch_ns> <record_path>`.
/// Dispatches on the protocol key and runs [`node::serve`] until the
/// launcher sends `SHUTDOWN`.
pub fn node_main(args: &[String]) -> Result<(), NetError> {
    if args.len() != 7 {
        return Err(NetError::Handshake(format!(
            "net-node expects 7 args, got {}",
            args.len()
        )));
    }
    let parse = |i: usize, what: &str| -> Result<u64, NetError> {
        args[i]
            .parse::<u64>()
            .map_err(|_| NetError::Handshake(format!("bad {what}: {}", args[i])))
    };
    type Serve = fn(&Topology, u32, u64, &Path) -> Result<(), NetError>;
    let table: [(&str, &str, Serve); 14] = protocol_table!(node::serve);
    let (_, _, serve) = table
        .into_iter()
        .find(|&(key, _, _)| key == args[0])
        .ok_or_else(|| NetError::Handshake(format!("unknown protocol {:?}", args[0])))?;
    let pid = parse(1, "pid")? as u32;
    let num_servers = parse(2, "num_servers")? as u32;
    let num_clients = parse(3, "num_clients")? as u32;
    let num_keys = parse(4, "num_keys")? as u32;
    let epoch_ns = parse(5, "epoch_ns")?;
    let topo = Topology::sharded(num_servers, num_clients, num_keys);
    serve(&topo, pid, epoch_ns, Path::new(&args[6]))
}
