//! Servers learn of `SHUTDOWN` at different instants, so a server with
//! periodic server-to-server traffic (GentleRain's, Contrarian's, Wren's
//! and Cure's stabilisation broadcasts, Spanner's commit re-sends) can
//! find itself writing to a peer that has already exited. That write is
//! dropped; every other write to a dead connection stays an error, so a
//! server that dies mid-run still fails the launch.

use cbf_net::frame::NetMsg;
use cbf_net::node::Router;
use cbf_net::CLIENT_HOST;
use cbf_sim::ProcessId;
use std::net::{TcpListener, TcpStream};

/// A connected stream whose far end has been closed.
fn dead_conn() -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    drop(listener.accept().unwrap());
    conn
}

fn msg(from: u32, to: u32) -> NetMsg {
    NetMsg {
        from: ProcessId(from),
        to: ProcessId(to),
        seq: 0,
        bytes: vec![0; 64],
    }
}

/// The kernel reports the dead peer on the write after the one that
/// provoked its reset, so "fails" means "fails within a few writes".
fn fails(router: &mut Router, m: &NetMsg) -> bool {
    (0..100).any(|_| router.send_msg(m).is_err())
}

#[test]
fn only_a_servers_send_to_an_exited_peer_server_is_dropped() {
    // Two servers (pids 0, 1); pid 2 is a client, hosted by the launcher.
    let mut server0 = Router::new(2);
    server0.register(1, dead_conn());
    server0.register(CLIENT_HOST, dead_conn());
    assert!(!fails(&mut server0, &msg(0, 1)), "server → exited server");
    assert!(fails(&mut server0, &msg(0, 2)), "server → dead launcher");

    let mut launcher = Router::new(2);
    launcher.register(1, dead_conn());
    assert!(fails(&mut launcher, &msg(2, 1)), "client → dead server");
}
