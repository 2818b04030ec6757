//! The 8-server key-value stand-in world that [`crate::soak`] drives:
//! the server actor ([`KvServer`]), its wire alphabet ([`KvMsg`]) and
//! the seeded op stream ([`OpGen`]).
//!
//! The workload is single-homed — client `c < 8` writes only keys
//! `k ≡ c (mod 8)`, client `8+s` reads only keys `k ≡ s (mod 8)` — so
//! no client or key ever crosses a server boundary and each server's
//! commit log can be checked as its own [`ShardedChecker`] shard.
//!
//! [`ShardedChecker`]: cbf_model::ShardedChecker

#![deny(unsafe_code)]

use cbf_model::history::TxRecord;
use cbf_model::{ClientId, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Servers (= checker shards) in the world.
pub const SERVERS: u32 = 8;

/// Operations injected per batch. Also bounds resident trace segments:
/// a batch generates ~2–3 events per op, all recycled at batch end.
pub const BATCH_OPS: usize = 4_096;

/// Ids covered by each server's duplicate-filter window. Batches are
/// injected in id order and each is given a virtual-time slice that
/// covers its two-hop traffic, so a delivery (duplicates included)
/// carries an id from the current batch, or from the one before when a
/// partition froze it past the slice boundary. Ids below the window are
/// *settled history*: treating them as duplicates is indistinguishable
/// from the drop the nemesis already inflicts, and the filter stays
/// O(window), not O(run).
pub const DEDUP_WINDOW_IDS: u64 = 2 * BATCH_OPS as u64;

/// A sliding-window duplicate filter over the driver's monotone op ids:
/// the frontier-keyed bound that keeps per-server dedup state constant
/// over unbounded runs (1 KiB of bits, regardless of run length).
#[derive(Clone, Debug)]
struct OpWindow {
    /// First id the bitmap covers; ids below are settled history.
    base: u64,
    /// One bit per id in `[base, base + DEDUP_WINDOW_IDS)`.
    bits: Vec<u64>,
}

impl OpWindow {
    fn new() -> Self {
        OpWindow {
            base: 0,
            bits: vec![0; (DEDUP_WINDOW_IDS / 64) as usize],
        }
    }

    /// True the first time `id` is seen; false for duplicates and for
    /// ids that fell below the window (settled — see
    /// [`DEDUP_WINDOW_IDS`] for why none of those can be first
    /// sightings).
    fn first_sighting(&mut self, id: u64) -> bool {
        if id < self.base {
            return false;
        }
        // Slide forward one word at a time, retiring settled ids.
        // Amortized O(1): ids only move forward, one batch per slide.
        while id >= self.base + DEDUP_WINDOW_IDS {
            self.bits.rotate_left(1);
            let last = self.bits.last_mut().expect("window is never empty");
            *last = 0;
            self.base += 64;
        }
        let off = (id - self.base) as usize;
        let (word, bit) = (off / 64, off % 64);
        let seen = self.bits[word] & (1 << bit) != 0;
        self.bits[word] |= 1 << bit;
        !seen
    }
}

/// Wire format between the driver and a server.
#[derive(Clone, Debug)]
pub enum KvMsg {
    /// Write `key := val` on the owning server, on behalf of the
    /// writer client homed there.
    Write {
        /// Transaction id (global op index).
        id: u64,
        /// Key, homed at server `key % SERVERS`.
        key: u32,
        /// Driver-allocated distinct value.
        val: u64,
    },
    /// Read `key` on the owning server, on behalf of the reader client
    /// homed there.
    Read {
        /// Transaction id (global op index).
        id: u64,
        /// Key, homed at server `key % SERVERS`.
        key: u32,
    },
    /// Fire-and-forget replication gossip to a peer: absorbed into a
    /// shadow store, never logged as a transaction (so it exercises the
    /// network path without crossing checker shards).
    Repl {
        /// Replicated key.
        key: u32,
        /// Replicated value.
        val: u64,
    },
}

cbf_protocols::wire_enum!(KvMsg as "KvMsg" {
    0 => Write { id, key, val },
    1 => Read { id, key },
    2 => Repl { key, val },
});

/// One key-value server: applies writes/reads for the keys it owns,
/// appends a [`TxRecord`] per operation to its commit log, and gossips
/// every fourth write to its ring neighbour.
#[derive(Clone)]
pub struct KvServer {
    me: u32,
    store: Vec<Option<u64>>,
    shadow: Vec<Option<u64>>,
    writes_seen: u64,
    log: Vec<TxRecord>,
    seen: OpWindow,
    dups_absorbed: u64,
    reads_skipped: u64,
}

impl KvServer {
    /// A server owning the keys `≡ me (mod SERVERS)` of a `keys`-key space.
    pub fn new(me: u32, keys: u32) -> Self {
        KvServer {
            me,
            store: vec![None; keys as usize],
            shadow: vec![None; keys as usize],
            writes_seen: 0,
            log: Vec::new(),
            seen: OpWindow::new(),
            dups_absorbed: 0,
            reads_skipped: 0,
        }
    }

    /// Drain the commit log (the driver calls this after each batch).
    pub fn take_log(&mut self) -> Vec<TxRecord> {
        std::mem::take(&mut self.log)
    }

    /// Nemesis-absorption counters: `(duplicate ops absorbed, reads of
    /// never-written keys skipped)`.
    pub fn absorb_stats(&self) -> (u64, u64) {
        (self.dups_absorbed, self.reads_skipped)
    }

    fn record(
        &mut self,
        id: u64,
        client: u32,
        reads: Vec<(Key, Value)>,
        writes: Vec<(Key, Value)>,
        at: Time,
    ) {
        self.log.push(TxRecord {
            id: TxId(id),
            client: ClientId(client),
            reads,
            writes,
            invoked_at: at,
            completed_at: at,
        });
    }
}

impl Actor for KvServer {
    type Msg = KvMsg;
    fn step(&mut self, ctx: &mut Ctx<KvMsg>) {
        let now = ctx.now();
        for env in ctx.recv() {
            match env.msg {
                KvMsg::Write { id, key, val } => {
                    // Ops for keys homed elsewhere take one network hop
                    // to their owner: the soak injects at a ring
                    // neighbour so client ops cross the network — where
                    // the nemesis can drop, duplicate and crash them.
                    if key % SERVERS != self.me {
                        ctx.send(ProcessId(key % SERVERS), KvMsg::Write { id, key, val });
                        continue;
                    }
                    // A duplicated delivery must not log a second
                    // TxRecord under the same TxId (the history would
                    // claim one client committed twice).
                    if !self.seen.first_sighting(id) {
                        self.dups_absorbed += 1;
                        continue;
                    }
                    self.store[key as usize] = Some(val);
                    self.writes_seen += 1;
                    // Writer client homed on this server.
                    self.record(id, self.me, vec![], vec![(Key(key), Value(val))], now);
                    if self.writes_seen.is_multiple_of(4) {
                        ctx.send(ProcessId((self.me + 1) % SERVERS), KvMsg::Repl { key, val });
                    }
                }
                KvMsg::Read { id, key } => {
                    if key % SERVERS != self.me {
                        ctx.send(ProcessId(key % SERVERS), KvMsg::Read { id, key });
                        continue;
                    }
                    if !self.seen.first_sighting(id) {
                        self.dups_absorbed += 1;
                        continue;
                    }
                    // Under the nemesis the init-prefix write may have
                    // been dropped; a read of a never-written key is
                    // skipped (it has no value to report), not a crash.
                    let Some(v) = self.store[key as usize] else {
                        self.reads_skipped += 1;
                        continue;
                    };
                    // Reader client homed on this server.
                    self.record(
                        id,
                        SERVERS + self.me,
                        vec![(Key(key), Value(v))],
                        vec![],
                        now,
                    );
                }
                KvMsg::Repl { key, val } => {
                    // Absorbed: visible to nobody's reads, so shards
                    // stay isolated; the message still exercised the
                    // in-flight table, the event queue and the trace.
                    self.shadow[key as usize] = Some(val);
                }
            }
        }
    }
}

/// The deterministic op stream: the first `keys` ops initialize every
/// key, then a seeded 50/50 read/write mix over random keys.
///
/// Generated lazily, one op at a time, so nothing ever materializes a
/// schedule: the soak pulls tens of millions of ops from O(1) generator
/// state. Ids are the global op index, allocated here.
pub struct OpGen {
    rng: StdRng,
    next_val: u64,
    next_id: u64,
    keys: u32,
}

impl OpGen {
    /// A fresh stream over `keys` keys; same `(keys, seed)` ⇒ the same
    /// op sequence, forever.
    pub fn new(keys: u32, seed: u64) -> Self {
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            next_val: 1,
            next_id: 0,
            keys,
        }
    }

    /// The next op, addressed to the server that homes its key.
    pub fn next_op(&mut self) -> (ProcessId, KvMsg) {
        let id = self.next_id;
        self.next_id += 1;
        let init = id < self.keys as u64;
        let write = init || self.rng.gen_bool(0.5);
        let (key, msg) = if write {
            let key = if init {
                id as u32
            } else {
                self.rng.gen_range(0..self.keys)
            };
            let val = self.next_val;
            self.next_val += 1;
            (key, KvMsg::Write { id, key, val })
        } else {
            let key = self.rng.gen_range(0..self.keys);
            (key, KvMsg::Read { id, key })
        };
        (ProcessId(key % SERVERS), msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_window_filters_duplicates_and_settled_ids() {
        let mut w = OpWindow::new();
        assert!(w.first_sighting(0));
        assert!(!w.first_sighting(0), "second sighting is a duplicate");
        assert!(w.first_sighting(5));
        // Slide far forward: everything below the new window is settled
        // history and reads as duplicate, in-window ids still register.
        assert!(w.first_sighting(DEDUP_WINDOW_IDS + 100));
        assert!(!w.first_sighting(0), "settled id must not re-register");
        assert!(!w.first_sighting(DEDUP_WINDOW_IDS + 100));
        assert!(w.first_sighting(DEDUP_WINDOW_IDS + 99));
    }
}
