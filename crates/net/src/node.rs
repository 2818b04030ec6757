//! The per-process event loop: hosting real actors over real sockets.
//!
//! A [`Host`] owns some subset of a deployment's actors — one server
//! actor in a server process, every client actor in the launcher — and
//! drives them with paper-faithful computation steps: all messages that
//! arrived since an actor's previous step are handed to one `step()`
//! call, which may send and arm timers. The batching is the paper's
//! step semantics, not an optimisation: the simulator delivers the
//! whole income buffer per step, and the recording preserves whatever
//! batching the real runtime happened to produce so replay can repeat
//! it exactly.
//!
//! Everything nondeterministic that enters an actor is recorded (see
//! [`crate::record`]); everything deterministic (the actor's own
//! behaviour, the content of network messages) is not — replay
//! re-derives it.

#![deny(unsafe_code)]

use crate::frame::{read_frame, write_frame, write_msg, Frame, NetMsg, CLIENT_HOST};
use crate::msgid::{link_msg_id, self_msg_id};
use crate::record::{ProcessLog, Recording, StepInput, StepRecord};
use crate::NetError;
use cbf_protocols::common::{ProtocolNode, Topology, Wire};
use cbf_sim::{Ctx, Envelope, ProcessId};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io::{BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::time::{SystemTime, UNIX_EPOCH};

/// Wall clock relative to a cluster-wide epoch, so timestamps taken in
/// different OS processes are comparable. The epoch is chosen by the
/// launcher and passed to every child, which keeps all recorded `now`s
/// small and non-negative.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch_unix_ns: u64,
}

impl Clock {
    /// A clock whose epoch is *now* (launcher side).
    pub fn at_epoch() -> Clock {
        Clock {
            epoch_unix_ns: unix_ns(),
        }
    }

    /// A clock sharing a previously chosen epoch (child side).
    pub fn from_epoch_ns(epoch_unix_ns: u64) -> Clock {
        Clock { epoch_unix_ns }
    }

    /// The epoch, as ns since `UNIX_EPOCH` (for passing to children).
    pub fn epoch_ns(&self) -> u64 {
        self.epoch_unix_ns
    }

    /// Nanoseconds since the epoch. Saturating: a cross-process clock
    /// skew that makes a child's clock lag the launcher's epoch reads
    /// as 0 rather than panicking.
    pub fn now(&self) -> u64 {
        unix_ns().saturating_sub(self.epoch_unix_ns)
    }
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// What a connection reader thread reports to the main loop.
#[derive(Debug)]
pub enum Event {
    /// A protocol message arrived.
    Net(NetMsg),
    /// The launcher asked this process to finish.
    Shutdown,
    /// The peer closed the connection (EOF at a frame boundary).
    Closed {
        /// Which peer (server pid or [`CLIENT_HOST`]).
        host: u32,
    },
    /// The connection failed mid-frame.
    Failed {
        /// Which peer.
        host: u32,
        /// The I/O error, rendered.
        error: String,
    },
}

/// Spawn a thread that decodes frames off `stream` into `tx` until EOF
/// or error. The thread is detached; it exits when the socket closes.
pub fn spawn_reader(host: u32, stream: TcpStream, tx: Sender<Event>) {
    std::thread::spawn(move || {
        let mut r = BufReader::new(stream);
        loop {
            match read_frame(&mut r) {
                Ok(Frame::Msg(m)) => {
                    if tx.send(Event::Net(m)).is_err() {
                        return;
                    }
                }
                Ok(Frame::Shutdown) => {
                    let _ = tx.send(Event::Shutdown);
                    return;
                }
                Ok(Frame::Hello { .. }) => {
                    let _ = tx.send(Event::Failed {
                        host,
                        error: "unexpected HELLO after handshake".into(),
                    });
                    return;
                }
                // A reset is how a close looks when the peer exited with
                // our frames still unread in its socket buffer.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                    ) =>
                {
                    let _ = tx.send(Event::Closed { host });
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Event::Failed {
                        host,
                        error: e.to_string(),
                    });
                    return;
                }
            }
        }
    });
}

/// Write side of the cluster's connections, keyed by host id (server
/// pid, or [`CLIENT_HOST`] for the launcher process).
pub struct Router {
    num_servers: u32,
    conns: HashMap<u32, TcpStream>,
}

impl Router {
    /// An empty router for a deployment with `num_servers` servers.
    pub fn new(num_servers: u32) -> Router {
        Router {
            num_servers,
            conns: HashMap::new(),
        }
    }

    /// Which OS process hosts actor `pid`.
    fn host_of(&self, pid: ProcessId) -> u32 {
        if pid.0 < self.num_servers {
            pid.0
        } else {
            CLIENT_HOST
        }
    }

    /// Register the write half of a connection to `host`.
    pub fn register(&mut self, host: u32, stream: TcpStream) {
        self.conns.insert(host, stream);
    }

    /// Send one protocol message toward `m.to`'s host.
    ///
    /// A server's message to a peer *server* that has already exited is
    /// dropped, as its read side treats that peer's close as benign:
    /// servers learn of `SHUTDOWN` at different instants, and one with
    /// periodic server-to-server traffic (stabilisation broadcasts,
    /// commit re-sends) would otherwise die writing to a peer that
    /// finished first. The launcher stays the failure detector — it
    /// fails the run if any server closes early or exits nonzero.
    pub fn send_msg(&mut self, m: &NetMsg) -> Result<(), NetError> {
        let host = self.host_of(m.to);
        let conn = self
            .conns
            .get_mut(&host)
            .ok_or_else(|| NetError::Route(format!("no connection to host {host} for {m:?}")))?;
        match write_msg(conn, m) {
            Err(e)
                if host != CLIENT_HOST
                    && self.host_of(m.from) != CLIENT_HOST
                    && matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) =>
            {
                Ok(())
            }
            r => r.map_err(NetError::from),
        }
    }

    /// Broadcast `SHUTDOWN` to every connected peer (launcher side).
    pub fn send_shutdowns(&mut self) -> Result<(), NetError> {
        for (_, conn) in self.conns.iter_mut() {
            write_frame(conn, &Frame::Shutdown)?;
        }
        Ok(())
    }
}

/// A timer armed by a local actor. Ordered by `(fire_at, tie)` so the
/// heap pops due timers in arming order within an instant.
struct TimerEntry<M> {
    fire_at: u64,
    tie: u64,
    pid: ProcessId,
    msg: M,
}

impl<M> PartialEq for TimerEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.tie == other.tie
    }
}
impl<M> Eq for TimerEntry<M> {}
impl<M> PartialOrd for TimerEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for TimerEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest.
        other
            .fire_at
            .cmp(&self.fire_at)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

/// Hosts a set of actors of one deployment inside one OS process and
/// routes their traffic: local actor-to-actor delivery in memory,
/// remote delivery through the [`Router`], timers through a heap read
/// against the wall [`Clock`]. Records every step.
pub struct Host<N: ProtocolNode>
where
    N::Msg: Wire,
{
    clock: Clock,
    router: Router,
    actors: BTreeMap<ProcessId, N>,
    inboxes: BTreeMap<ProcessId, Vec<Envelope<N::Msg>>>,
    pending: BTreeMap<ProcessId, Vec<StepInput>>,
    timers: BinaryHeap<TimerEntry<N::Msg>>,
    timer_tie: u64,
    link_seq: HashMap<(ProcessId, ProcessId), u64>,
    self_seq: HashMap<ProcessId, u64>,
    logs: BTreeMap<ProcessId, Vec<StepRecord>>,
}

impl<N: ProtocolNode> Host<N>
where
    N::Msg: Wire,
{
    /// Construct the local actors (via the same `ProtocolNode`
    /// constructors the simulator uses) and run their `on_start` at
    /// time 0 — mirroring `World::new`, which does exactly that, so the
    /// replay world and the real cluster begin in identical states.
    /// `on_start` is deliberately *not* recorded as a step: replay's
    /// `World::new` repeats it.
    pub fn new(topo: &Topology, local: &[ProcessId], clock: Clock, router: Router) -> Self {
        let mut h = Host {
            clock,
            router,
            actors: BTreeMap::new(),
            inboxes: BTreeMap::new(),
            pending: BTreeMap::new(),
            timers: BinaryHeap::new(),
            timer_tie: 0,
            link_seq: HashMap::new(),
            self_seq: HashMap::new(),
            logs: BTreeMap::new(),
        };
        for &pid in local {
            let actor = if topo.is_server(pid) {
                N::server(topo, pid)
            } else {
                N::client(topo, pid)
            };
            h.actors.insert(pid, actor);
            h.inboxes.insert(pid, Vec::new());
            h.pending.insert(pid, Vec::new());
            h.logs.insert(pid, Vec::new());
        }
        for &pid in local {
            let mut ctx = Ctx::standalone(pid, 0, Vec::new());
            let mut actor = h.actors.remove(&pid).expect("local actor");
            actor.on_start(&mut ctx);
            h.actors.insert(pid, actor);
            let (sends, timers) = ctx.into_outputs();
            for (to, msg) in sends {
                // Errors here are fatal anyway; surface at first step.
                let _ = h.route(pid, to, msg);
            }
            let now = h.clock.now();
            for (delay, msg) in timers {
                h.arm_timer(pid, now + delay, msg);
            }
        }
        h
    }

    /// The shared clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Mutable access to a hosted actor (the driver polls clients for
    /// completed transactions, as the sim harness does).
    pub fn actor_mut(&mut self, pid: ProcessId) -> &mut N {
        self.actors.get_mut(&pid).expect("pid is hosted here")
    }

    /// Queue a message that arrived from the network into its
    /// destination's income buffer, recording the delivery.
    pub fn enqueue_net(&mut self, m: NetMsg) -> Result<(), NetError> {
        let inbox = self
            .inboxes
            .get_mut(&m.to)
            .ok_or_else(|| NetError::Route(format!("{:?} is not hosted here", m.to)))?;
        let msg = N::Msg::from_bytes(&m.bytes).map_err(NetError::Codec)?;
        inbox.push(Envelope {
            from: m.from,
            id: link_msg_id(m.from, m.to, m.seq),
            msg,
        });
        self.pending
            .get_mut(&m.to)
            .expect("pending tracks inboxes")
            .push(StepInput::Deliver {
                from: m.from,
                seq: m.seq,
            });
        Ok(())
    }

    /// Inject a message into a local actor's income buffer (the swarm
    /// driver invoking a transaction), recording the injection.
    pub fn inject(&mut self, pid: ProcessId, msg: N::Msg) {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let seq = self.next_self_seq(pid);
        self.inboxes.get_mut(&pid).expect("hosted").push(Envelope {
            from: pid,
            id: self_msg_id(pid, seq),
            msg,
        });
        self.pending
            .get_mut(&pid)
            .expect("hosted")
            .push(StepInput::Inject { bytes });
    }

    fn next_self_seq(&mut self, pid: ProcessId) -> u64 {
        let slot = self.self_seq.entry(pid).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    fn arm_timer(&mut self, pid: ProcessId, fire_at: u64, msg: N::Msg) {
        let tie = self.timer_tie;
        self.timer_tie += 1;
        self.timers.push(TimerEntry {
            fire_at,
            tie,
            pid,
            msg,
        });
    }

    /// Move every due timer into its actor's income buffer, recording
    /// each as a `Timer` input with its encoded payload.
    pub fn fire_due_timers(&mut self) {
        let now = self.clock.now();
        while let Some(t) = self.timers.peek() {
            if t.fire_at > now {
                break;
            }
            let t = self.timers.pop().expect("peeked");
            let mut bytes = Vec::new();
            t.msg.encode(&mut bytes);
            let seq = self.next_self_seq(t.pid);
            self.inboxes
                .get_mut(&t.pid)
                .expect("hosted")
                .push(Envelope {
                    from: t.pid,
                    id: self_msg_id(t.pid, seq),
                    msg: t.msg,
                });
            self.pending
                .get_mut(&t.pid)
                .expect("hosted")
                .push(StepInput::Timer { bytes });
        }
    }

    /// Absolute epoch-ns instant of the next armed timer, if any.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.timers.peek().map(|t| t.fire_at)
    }

    /// Route one send from a completed step: in-memory when the
    /// destination is hosted here, framed over the router otherwise.
    fn route(&mut self, from: ProcessId, to: ProcessId, msg: N::Msg) -> Result<(), NetError> {
        let slot = self.link_seq.entry((from, to)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        if let Some(inbox) = self.inboxes.get_mut(&to) {
            inbox.push(Envelope {
                from,
                id: link_msg_id(from, to, seq),
                msg,
            });
            self.pending
                .get_mut(&to)
                .expect("hosted")
                .push(StepInput::Deliver { from, seq });
            Ok(())
        } else {
            let mut bytes = Vec::new();
            msg.encode(&mut bytes);
            self.router.send_msg(&NetMsg {
                from,
                to,
                seq,
                bytes,
            })
        }
    }

    /// One computation step of `pid`, consuming its entire income
    /// buffer — a no-op when the buffer is empty (the paper's steps are
    /// triggered; the runtime never spins an actor on nothing).
    pub fn step(&mut self, pid: ProcessId) -> Result<(), NetError> {
        let inbox = std::mem::take(self.inboxes.get_mut(&pid).expect("hosted"));
        if inbox.is_empty() {
            return Ok(());
        }
        let inputs = std::mem::take(self.pending.get_mut(&pid).expect("hosted"));
        let now = self.clock.now();
        let mut ctx = Ctx::standalone(pid, now, inbox);
        let mut actor = self.actors.remove(&pid).expect("hosted");
        actor.step(&mut ctx);
        self.actors.insert(pid, actor);
        let (sends, timers) = ctx.into_outputs();
        for (to, msg) in sends {
            self.route(pid, to, msg)?;
        }
        for (delay, msg) in timers {
            self.arm_timer(pid, now + delay, msg);
        }
        self.logs
            .get_mut(&pid)
            .expect("hosted")
            .push(StepRecord { now, inputs });
        Ok(())
    }

    /// Step every actor with a non-empty income buffer, in pid order.
    /// A step's local sends refill other inboxes; loop until quiet so
    /// intra-process chains drain without waiting for the next socket
    /// event.
    pub fn step_all_pending(&mut self) -> Result<(), NetError> {
        loop {
            let ready: Vec<ProcessId> = self
                .inboxes
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .map(|(&p, _)| p)
                .collect();
            if ready.is_empty() {
                return Ok(());
            }
            for pid in ready {
                self.step(pid)?;
            }
        }
    }

    /// Broadcast shutdown to all connected peers (launcher side).
    pub fn send_shutdowns(&mut self) -> Result<(), NetError> {
        self.router.send_shutdowns()
    }

    /// Finish: the recording of every locally hosted process.
    pub fn finish(self) -> Recording {
        Recording {
            logs: self
                .logs
                .into_iter()
                .map(|(pid, steps)| ProcessLog { pid, steps })
                .collect(),
        }
    }
}

/// Run one server process until the launcher sends `SHUTDOWN`, then
/// write its recording to `record_path`.
///
/// Bootstrap protocol (see [`crate::launch`] for the other side):
///
/// 1. Bind an ephemeral loopback port and print `PORT <pid> <port>` on
///    stdout.
/// 2. Read one `PEERS <pid>:<port> …` line from stdin (every server's
///    port).
/// 3. Dial every lower-numbered server (sending `HELLO`), then accept
///    the higher-numbered servers plus the launcher. Dial-low/accept-
///    high makes the mesh deadlock-free: the listener's backlog holds
///    incoming connections while this process is itself dialing.
/// 4. Event loop: sleep until a frame or the next timer deadline, fire
///    due timers, batch-drain income buffers with [`Host::step`].
pub fn serve<N: ProtocolNode>(
    topo: &Topology,
    pid: u32,
    epoch_ns: u64,
    record_path: &std::path::Path,
) -> Result<(), NetError>
where
    N::Msg: Wire,
{
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::mpsc;

    let me = ProcessId(pid);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let port = listener.local_addr()?.port();
    {
        use std::io::Write as _;
        let mut out = std::io::stdout().lock();
        writeln!(out, "PORT {pid} {port}")?;
        out.flush()?;
    }

    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line)?;
    let mut ports: HashMap<u32, u16> = HashMap::new();
    let mut words = line.split_whitespace();
    if words.next() != Some("PEERS") {
        return Err(NetError::Handshake(format!(
            "expected PEERS line: {line:?}"
        )));
    }
    for w in words {
        let (p, port) = w
            .split_once(':')
            .ok_or_else(|| NetError::Handshake(format!("bad peer entry {w:?}")))?;
        let p: u32 = p
            .parse()
            .map_err(|_| NetError::Handshake(format!("bad peer pid {p:?}")))?;
        let port: u16 = port
            .parse()
            .map_err(|_| NetError::Handshake(format!("bad peer port {port:?}")))?;
        ports.insert(p, port);
    }

    let (tx, rx) = mpsc::channel::<Event>();
    let mut router = Router::new(topo.num_servers);
    // Dial lower-numbered servers.
    for peer in 0..pid {
        let port = *ports
            .get(&peer)
            .ok_or_else(|| NetError::Handshake(format!("no port for server {peer}")))?;
        let mut conn = TcpStream::connect(("127.0.0.1", port))?;
        conn.set_nodelay(true)?;
        write_frame(&mut conn, &Frame::Hello { host: pid })?;
        spawn_reader(peer, conn.try_clone()?, tx.clone());
        router.register(peer, conn);
    }
    // Accept higher-numbered servers and the launcher (client host).
    let expect_inbound = (topo.num_servers - 1 - pid) + 1;
    for _ in 0..expect_inbound {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        // Read the HELLO *unbuffered*, straight off the stream: the
        // peer's first protocol frames may already be queued right
        // behind it, and a temporary BufReader's read-ahead would
        // swallow them into a buffer that is dropped on the spot —
        // silent message loss that strands the sender forever (no
        // retries at this layer by design). `read_exact` on the bare
        // socket consumes exactly the HELLO's bytes and nothing more.
        let host = match read_frame(&mut conn)? {
            Frame::Hello { host } => host,
            other => {
                return Err(NetError::Handshake(format!(
                    "expected HELLO, got {other:?}"
                )))
            }
        };
        spawn_reader(host, conn.try_clone()?, tx.clone());
        router.register(host, conn);
    }

    let clock = Clock::from_epoch_ns(epoch_ns);
    let mut host = Host::<N>::new(topo, &[me], clock, router);

    loop {
        // Sleep until a frame arrives or the next timer is due.
        let event = match host.next_timer_deadline() {
            Some(deadline) => {
                let now = host.clock().now();
                let wait = std::time::Duration::from_nanos(deadline.saturating_sub(now));
                match rx.recv_timeout(wait) {
                    Ok(ev) => Some(ev),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(NetError::Handshake("all connections lost".into()))
                    }
                }
            }
            None => Some(
                rx.recv()
                    .map_err(|_| NetError::Handshake("all connections lost".into()))?,
            ),
        };
        match event {
            Some(Event::Net(m)) => host.enqueue_net(m)?,
            Some(Event::Shutdown) => break,
            Some(Event::Closed { host: h }) if h != CLIENT_HOST => {
                // A peer server finished first during shutdown; benign.
            }
            Some(Event::Closed { host: h }) => {
                return Err(NetError::Handshake(format!(
                    "launcher connection (host {h}) closed before SHUTDOWN"
                )));
            }
            Some(Event::Failed { host: h, error }) => {
                return Err(NetError::Handshake(format!(
                    "connection to host {h} failed: {error}"
                )));
            }
            None => {} // timer deadline reached
        }
        // Drain any further frames that are already queued, so one step
        // batch sees everything that raced in together.
        while let Ok(ev) = rx.try_recv() {
            match ev {
                Event::Net(m) => host.enqueue_net(m)?,
                Event::Shutdown => {
                    host.fire_due_timers();
                    host.step_all_pending()?;
                    host.finish().save(record_path)?;
                    return Ok(());
                }
                Event::Closed { host: h } if h != CLIENT_HOST => {}
                Event::Closed { host: h } => {
                    return Err(NetError::Handshake(format!(
                        "launcher connection (host {h}) closed before SHUTDOWN"
                    )));
                }
                Event::Failed { host: h, error } => {
                    return Err(NetError::Handshake(format!(
                        "connection to host {h} failed: {error}"
                    )));
                }
            }
        }
        host.fire_due_timers();
        host.step_all_pending()?;
    }

    host.fire_due_timers();
    host.step_all_pending()?;
    host.finish().save(record_path)?;
    Ok(())
}
