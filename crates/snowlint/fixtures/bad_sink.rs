//! Known-bad clone of the sim crate's segment sink: drops the module's
//! `#![deny(unsafe_code)]` guard and commits every determinism sin a
//! "faster" sink is tempted by. Lexed by the fixture tests under the
//! path `crates/sim/src/sink.rs`; never compiled.

use std::collections::HashMap; // line: hash
use std::time::Instant;

pub struct IndexedSink<V> {
    segments: HashMap<u32, V>, // line: hash-field
    touched_at: u64,
}

impl<V> IndexedSink<V> {
    pub fn insert(&mut self, index: u32, segment: V) -> u32 {
        self.touched_at = Instant::now().elapsed().as_nanos() as u64; // line: clock
        self.segments.insert(index, segment);
        index
    }

    pub fn get_fast(&self, index: u32) -> Option<&V> {
        unsafe { self.segments.get(&index).map(|v| &*(v as *const V)) } // line: unsafe
    }
}
