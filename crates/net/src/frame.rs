//! Socket framing: `[u32 length][u8 kind][payload]`, little-endian.
//!
//! The length counts the kind byte plus the payload, so a reader can
//! `read_exact` the whole remainder in one call. Three frame kinds are
//! enough for the runtime:
//!
//! * `HELLO` — first frame on every connection; payload is the sender's
//!   host id so the acceptor learns who dialed it.
//! * `MSG` — one protocol message: `from`, `to`, per-link `seq`, then
//!   the [`Wire`]-encoded payload bytes. `from`/`to` are actor pids (a
//!   connection may multiplex several actors' links — the launcher
//!   hosts every client over one connection per server).
//! * `SHUTDOWN` — launcher → server: finalize the recording and exit.
//!
//! [`Wire`]: cbf_protocols::common::Wire

#![deny(unsafe_code)]

use cbf_sim::ProcessId;
use std::io::{self, Read, Write};

/// Host id the client-hosting launcher process announces in `HELLO`
/// (servers announce their actor pid; the launcher hosts many actors,
/// so it gets a sentinel).
pub const CLIENT_HOST: u32 = u32::MAX;

const KIND_HELLO: u8 = 1;
const KIND_MSG: u8 = 2;
const KIND_SHUTDOWN: u8 = 3;

/// Frames larger than this are rejected as corrupt before allocating.
/// Generous (a protocol message is tens to hundreds of bytes).
pub const MAX_FRAME: u32 = 16 << 20;

/// A protocol message crossing a connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetMsg {
    /// Sending actor.
    pub from: ProcessId,
    /// Receiving actor.
    pub to: ProcessId,
    /// Sequence number on the directed link `from → to` (0-based, one
    /// counter per link, assigned at send time).
    pub seq: u64,
    /// The `Wire`-encoded protocol message.
    pub bytes: Vec<u8>,
}

/// One frame off a connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection preamble: who is at the other end.
    Hello {
        /// Server pid, or [`CLIENT_HOST`] for the launcher.
        host: u32,
    },
    /// A protocol message.
    Msg(NetMsg),
    /// Orderly termination.
    Shutdown,
}

/// Write one frame as a single `write_all` of `[len][kind][payload]`,
/// then flush, so a frame is on the wire when this returns (the
/// runtime's steps are paper-faithful only if sends of a completed step
/// are visible to the network). One write per frame also means one TCP
/// segment on a `TCP_NODELAY` socket, and one wake-up of the peer's
/// reader.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    match frame {
        Frame::Hello { host } => write_parts(w, KIND_HELLO, &host.to_le_bytes(), &[]),
        Frame::Msg(m) => write_msg(w, m),
        Frame::Shutdown => write_parts(w, KIND_SHUTDOWN, &[], &[]),
    }
}

/// [`write_frame`] of a `MSG` frame, encoded from the borrowed message.
pub(crate) fn write_msg(w: &mut impl Write, m: &NetMsg) -> io::Result<()> {
    let mut head = [0u8; 16];
    head[..4].copy_from_slice(&m.from.0.to_le_bytes());
    head[4..8].copy_from_slice(&m.to.0.to_le_bytes());
    head[8..].copy_from_slice(&m.seq.to_le_bytes());
    write_parts(w, KIND_MSG, &head, &m.bytes)
}

/// Assemble `[len][kind][head][tail]` in one buffer and write it once.
fn write_parts(w: &mut impl Write, kind: u8, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let body = 1 + head.len() + tail.len();
    let len = u32::try_from(body).expect("frame fits in u32");
    assert!(len <= MAX_FRAME, "oversized frame");
    let mut buf = Vec::with_capacity(4 + body);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(head);
    buf.extend_from_slice(tail);
    w.write_all(&buf)?;
    w.flush()
}

fn bad_data(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Read one frame. `Err(UnexpectedEof)` at a clean frame boundary means
/// the peer closed the connection.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len == 0 {
        return Err(bad_data("empty frame".into()));
    }
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame length {len} exceeds cap")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let payload = &body[1..];
    match body[0] {
        KIND_HELLO => {
            if payload.len() != 4 {
                return Err(bad_data("malformed HELLO".into()));
            }
            Ok(Frame::Hello {
                host: u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]),
            })
        }
        KIND_MSG => {
            if payload.len() < 16 {
                return Err(bad_data("truncated MSG header".into()));
            }
            let from = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
            let to = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
            let seq = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            Ok(Frame::Msg(NetMsg {
                from: ProcessId(from),
                to: ProcessId(to),
                seq,
                bytes: payload[16..].to_vec(),
            }))
        }
        KIND_SHUTDOWN => Ok(Frame::Shutdown),
        kind => Err(bad_data(format!("unknown frame kind {kind}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), f);
        assert!(r.is_empty());
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello { host: 3 });
        roundtrip(Frame::Hello { host: CLIENT_HOST });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Msg(NetMsg {
            from: ProcessId(2),
            to: ProcessId(5),
            seq: 99,
            bytes: vec![1, 2, 3],
        }));
        roundtrip(Frame::Msg(NetMsg {
            from: ProcessId(0),
            to: ProcessId(1),
            seq: 0,
            bytes: vec![],
        }));
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let msg = Frame::Msg(NetMsg {
            from: ProcessId(2),
            to: ProcessId(5),
            seq: 99,
            bytes: vec![1, 2, 3],
        });
        #[rustfmt::skip]
        let cases: [(Frame, Vec<u8>); 3] = [
            (Frame::Hello { host: 3 }, vec![5, 0, 0, 0, KIND_HELLO, 3, 0, 0, 0]),
            (msg, vec![
                20, 0, 0, 0, KIND_MSG,
                2, 0, 0, 0, 5, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0,
                1, 2, 3,
            ]),
            (Frame::Shutdown, vec![1, 0, 0, 0, KIND_SHUTDOWN]),
        ];
        for (frame, wire) in cases {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &frame).unwrap();
            assert_eq!(w.writes, 1, "{frame:?} took {} writes", w.writes);
            assert_eq!(w.bytes, wire, "{frame:?}");
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap(), frame);
        }
    }

    #[test]
    fn multiple_frames_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Hello { host: 1 }).unwrap();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Hello { host: 1 });
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Shutdown);
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn corrupt_frames_error() {
        // Zero length.
        assert!(read_frame(&mut &[0u8, 0, 0, 0][..]).is_err());
        // Oversize length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Unknown kind.
        let mut buf = vec![1u8, 0, 0, 0, 42];
        assert!(read_frame(&mut &buf[..]).is_err());
        // Truncated MSG header.
        buf = vec![2u8, 0, 0, 0, KIND_MSG, 1];
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
