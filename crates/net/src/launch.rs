//! The cluster launcher: spawn server processes, host every client,
//! drive a closed-loop workload, collect the recording.
//!
//! One OS process per server; the launcher itself hosts all the client
//! actors (clients are thin state machines — the interesting
//! concurrency is between servers) plus the workload driver. Everything
//! runs over loopback TCP.
//!
//! The driver is closed-loop: each client has at most one transaction
//! outstanding, and a new one is issued the moment the previous
//! completes — the same shape the simulator's swarm benchmarks use, so
//! the latency distributions are comparable.

use crate::frame::{write_frame, Frame, CLIENT_HOST};
use crate::node::{spawn_reader, Clock, Event, Host, Router};
use crate::record::Recording;
use crate::NetError;
use cbf_model::{ClientId, History, Key, TxId, TxRecord, Value};
use cbf_protocols::common::{ProtocolNode, Topology, Wire};
use cbf_workloads::{Op, Workload, WorkloadSpec};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Everything a cluster run needs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Protocol key as understood by [`crate::node_main`] — a key of
    /// [`crate::protocol_table!`]. Must name the same protocol as the `N`
    /// type parameter of [`run_cluster`] — the servers run the key, the
    /// launcher's clients run `N`.
    pub protocol: String,
    /// Number of server processes.
    pub num_servers: u32,
    /// Workload shape. `spec.num_clients` is the client count and
    /// `spec.num_keys` the keyspace; both sides of the deployment
    /// derive the [`Topology`] from them.
    pub spec: WorkloadSpec,
    /// Transactions to complete before shutting down.
    pub txs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Directory for per-server recording files (created if absent).
    pub record_dir: PathBuf,
    /// Abort if no transaction completes for this long.
    pub stall_timeout: Duration,
}

/// What a cluster run produced.
#[derive(Debug)]
pub struct NetRun {
    /// Completed transactions, in completion order — the history the
    /// causal checker and the replay diff consume.
    pub history: History,
    /// The merged recording of every process's steps.
    pub recording: Recording,
    /// Wall-clock latency (ns) of each read-only transaction.
    pub rot_ns: Vec<u64>,
    /// Wall-clock latency (ns) of each write transaction.
    pub wtx_ns: Vec<u64>,
}

/// A spawned server that is killed if the launcher unwinds before the
/// orderly shutdown disarms it.
struct ChildGuard {
    pid: u32,
    child: Option<Child>,
}

impl ChildGuard {
    fn new(pid: u32, child: Child) -> ChildGuard {
        ChildGuard {
            pid,
            child: Some(child),
        }
    }

    /// Wait for a clean exit, with a deadline; nonzero statuses become
    /// errors so a crashed server can never produce a quiet-looking
    /// partial run.
    fn wait(mut self, deadline: Duration) -> Result<(), NetError> {
        let mut child = self.child.take().expect("not yet waited");
        let start = Instant::now();
        loop {
            match child.try_wait()? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(NetError::Child {
                        pid: self.pid,
                        status: status.to_string(),
                    })
                }
                None if start.elapsed() > deadline => {
                    let _ = child.kill();
                    return Err(NetError::Child {
                        pid: self.pid,
                        status: "did not exit after SHUTDOWN (killed)".into(),
                    });
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A transaction in flight at some client.
struct Pending {
    id: TxId,
    is_read: bool,
    writes: Vec<(Key, Value)>,
    read_set: Vec<Key>,
}

/// Run one protocol over a real loopback cluster and return its history,
/// latencies and recording. See the module docs for the process layout
/// and [`crate::node::serve`] for the bootstrap protocol.
pub fn run_cluster<N: ProtocolNode>(cfg: &NetConfig) -> Result<NetRun, NetError>
where
    N::Msg: Wire,
{
    let topo = Topology::sharded(cfg.num_servers, cfg.spec.num_clients, cfg.spec.num_keys);
    std::fs::create_dir_all(&cfg.record_dir)?;
    let clock = Clock::at_epoch();
    let exe = std::env::current_exe()?;

    // Spawn the server children and collect their ports.
    let mut children = Vec::new();
    let mut stdins = Vec::new();
    let mut ports: HashMap<u32, u16> = HashMap::new();
    for pid in 0..cfg.num_servers {
        let record_path = record_path(&cfg.record_dir, pid);
        let mut child = Command::new(&exe)
            .arg("net-node")
            .arg(&cfg.protocol)
            .arg(pid.to_string())
            .arg(cfg.num_servers.to_string())
            .arg(cfg.spec.num_clients.to_string())
            .arg(cfg.spec.num_keys.to_string())
            .arg(clock.epoch_ns().to_string())
            .arg(&record_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let stdin = child.stdin.take().expect("stdin piped");
        children.push(ChildGuard::new(pid, child));
        stdins.push(stdin);
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("PORT"), Some(p), Some(port)) if p == pid.to_string() => {
                let port: u16 = port
                    .parse()
                    .map_err(|_| NetError::Handshake(format!("bad port line {line:?}")))?;
                ports.insert(pid, port);
            }
            _ => return Err(NetError::Handshake(format!("bad PORT line {line:?}"))),
        }
    }

    // Tell every server where its peers are; they mesh among themselves.
    let peers_line = {
        let mut s = String::from("PEERS");
        for pid in 0..cfg.num_servers {
            s.push_str(&format!(" {pid}:{}", ports[&pid]));
        }
        s.push('\n');
        s
    };
    for stdin in &mut stdins {
        stdin.write_all(peers_line.as_bytes())?;
        stdin.flush()?;
    }

    // Dial every server as the client host.
    let (tx, rx) = mpsc::channel::<Event>();
    let mut router = Router::new(cfg.num_servers);
    for pid in 0..cfg.num_servers {
        let mut conn = TcpStream::connect(("127.0.0.1", ports[&pid]))?;
        conn.set_nodelay(true)?;
        write_frame(&mut conn, &Frame::Hello { host: CLIENT_HOST })?;
        spawn_reader(pid, conn.try_clone()?, tx.clone());
        router.register(pid, conn);
    }

    let client_pids: Vec<_> = topo.clients().collect();
    let mut host = Host::<N>::new(&topo, &client_pids, clock, router);

    // Closed-loop driver.
    let mut workload = Workload::new(cfg.spec, cfg.seed);
    let mut free: VecDeque<ClientId> = (0..cfg.spec.num_clients).map(ClientId).collect();
    let mut in_flight: HashMap<ClientId, Pending> = HashMap::new();
    let mut next_tx: u64 = 0;
    let mut next_val: u64 = 1;
    let mut issued = 0usize;
    let mut history = History::new();
    let mut rot_ns = Vec::new();
    let mut wtx_ns = Vec::new();
    let mut last_progress = Instant::now();

    while history.len() < cfg.txs {
        // Issue new transactions onto free clients.
        while issued < cfg.txs {
            let Some(client) = free.pop_front() else {
                break;
            };
            let op = workload.next_op();
            let id = TxId(next_tx);
            next_tx += 1;
            let mut alloc = || {
                let v = Value(next_val);
                next_val += 1;
                v
            };
            let pending = match op {
                Op::Rot { keys, .. } => {
                    host.inject(topo.client_pid(client), N::rot_invoke(id, keys.clone()));
                    Pending {
                        id,
                        is_read: true,
                        writes: vec![],
                        read_set: keys,
                    }
                }
                Op::Write { key, .. } => {
                    let writes = vec![(key, alloc())];
                    host.inject(topo.client_pid(client), N::wtx_invoke(id, writes.clone()));
                    Pending {
                        id,
                        is_read: false,
                        writes,
                        read_set: vec![],
                    }
                }
                Op::MultiWrite { keys, .. } => {
                    // Protocols without multi-object write transactions
                    // (the paper's trade-off) degrade to a single write.
                    let keys = if N::SUPPORTS_MULTI_WRITE {
                        keys
                    } else {
                        keys[..1].to_vec()
                    };
                    let writes: Vec<_> = keys.into_iter().map(|k| (k, alloc())).collect();
                    host.inject(topo.client_pid(client), N::wtx_invoke(id, writes.clone()));
                    Pending {
                        id,
                        is_read: false,
                        writes,
                        read_set: vec![],
                    }
                }
            };
            in_flight.insert(client, pending);
            issued += 1;
        }

        // Wait for network traffic or the next timer, then run steps.
        let wait = match host.next_timer_deadline() {
            Some(deadline) => Duration::from_nanos(deadline.saturating_sub(host.clock().now()))
                .min(Duration::from_millis(1)),
            None => Duration::from_millis(1),
        };
        match rx.recv_timeout(wait) {
            Ok(ev) => handle_event(&mut host, ev)?,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(NetError::Handshake("all server connections lost".into()))
            }
        }
        while let Ok(ev) = rx.try_recv() {
            handle_event(&mut host, ev)?;
        }
        host.fire_due_timers();
        host.step_all_pending()?;

        // Poll for completions.
        let busy: Vec<ClientId> = in_flight.keys().copied().collect();
        for client in busy {
            let id = in_flight[&client].id;
            let done = host.actor_mut(topo.client_pid(client)).take_completed(id);
            let Some(c) = done else { continue };
            let p = in_flight.remove(&client).expect("was in flight");
            let latency = c.completed_at.saturating_sub(c.invoked_at);
            if p.is_read {
                debug_assert_eq!(
                    c.reads.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
                    p.read_set
                );
                rot_ns.push(latency);
            } else {
                wtx_ns.push(latency);
            }
            history.push(TxRecord {
                id: p.id,
                client,
                reads: c.reads,
                writes: p.writes,
                invoked_at: c.invoked_at,
                completed_at: c.completed_at,
            });
            free.push_back(client);
            last_progress = Instant::now();
        }

        if last_progress.elapsed() > cfg.stall_timeout {
            return Err(NetError::Stall(format!(
                "{}/{} transactions after {:?} without progress ({} in flight)",
                history.len(),
                cfg.txs,
                cfg.stall_timeout,
                in_flight.len()
            )));
        }
    }

    // Orderly shutdown: servers flush their recordings and exit; a
    // nonzero child status is propagated, never swallowed.
    host.send_shutdowns()?;
    for guard in children {
        guard.wait(Duration::from_secs(10))?;
    }

    let mut recording = host.finish();
    for pid in 0..cfg.num_servers {
        recording.merge(Recording::load(&record_path(&cfg.record_dir, pid))?);
    }
    recording.check_no_aliasing().map_err(NetError::Recording)?;

    Ok(NetRun {
        history,
        recording,
        rot_ns,
        wtx_ns,
    })
}

fn handle_event<N: ProtocolNode>(host: &mut Host<N>, ev: Event) -> Result<(), NetError>
where
    N::Msg: Wire,
{
    match ev {
        Event::Net(m) => host.enqueue_net(m),
        Event::Shutdown => Err(NetError::Handshake(
            "unexpected SHUTDOWN frame at the launcher".into(),
        )),
        Event::Closed { host: h } => Err(NetError::Handshake(format!(
            "server {h} closed its connection mid-run"
        ))),
        Event::Failed { host: h, error } => Err(NetError::Handshake(format!(
            "connection to server {h} failed: {error}"
        ))),
    }
}

fn record_path(dir: &std::path::Path, pid: u32) -> PathBuf {
    dir.join(format!("node_{pid}.rec"))
}
