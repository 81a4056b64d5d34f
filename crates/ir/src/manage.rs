//! Linear-time name resolution over the Manage-IR.
//!
//! Validation, arena construction and the cost passes resolve every
//! port to its stream and every stream to its memory object. Done with
//! [`IrModule::mem`]/[`IrModule::stream`] (linear scans) that is
//! quadratic in the port count — a 64-lane Hotspot declares 576 ports.
//! A [`ManageIndex`] hashes the memory-object and stream names once, in
//! one pass over the module, and answers the same questions in O(1).
//!
//! The index gives exactly the answers of the linear lookups: the first
//! declaration of a duplicated name wins, and a port whose stream or
//! memory object does not resolve counts as off-chip (the conservative
//! choice every caller made by hand before).

use crate::intern::FnvBuildHasher;
use crate::module::IrModule;
use crate::stream::{MemObject, PortDecl, StreamObject};
use std::collections::HashMap;

/// Name index over one module's memory objects and streams. Build it
/// with [`IrModule::manage_index`] once per pass; it borrows the module.
#[derive(Debug, Clone)]
pub struct ManageIndex<'m> {
    module: &'m IrModule,
    mems: HashMap<&'m str, u32, FnvBuildHasher>,
    streams: HashMap<&'m str, u32, FnvBuildHasher>,
    /// Per stream (declaration order): index of its backing memory
    /// object, resolved once so a port resolves with one hash lookup.
    stream_mem: Vec<Option<u32>>,
}

impl<'m> ManageIndex<'m> {
    /// Index `m`'s Manage-IR names in one pass (first declaration wins).
    pub fn new(m: &'m IrModule) -> ManageIndex<'m> {
        let mut mems = HashMap::with_capacity_and_hasher(m.mems.len(), FnvBuildHasher::default());
        for (i, x) in m.mems.iter().enumerate() {
            mems.entry(x.name.as_str()).or_insert(i as u32);
        }
        let mut streams =
            HashMap::with_capacity_and_hasher(m.streams.len(), FnvBuildHasher::default());
        for (i, x) in m.streams.iter().enumerate() {
            streams.entry(x.name.as_str()).or_insert(i as u32);
        }
        let stream_mem = m.streams.iter().map(|s| mems.get(s.mem.as_str()).copied()).collect();
        ManageIndex { module: m, mems, streams, stream_mem }
    }

    /// The memory object named `name` — same answer as [`IrModule::mem`].
    pub fn mem(&self, name: &str) -> Option<&'m MemObject> {
        self.mems.get(name).map(|&i| &self.module.mems[i as usize])
    }

    /// The stream named `name` — same answer as [`IrModule::stream`].
    pub fn stream(&self, name: &str) -> Option<&'m StreamObject> {
        self.streams.get(name).map(|&i| &self.module.streams[i as usize])
    }

    /// The memory object behind a port (port → stream → memory object),
    /// `None` when either link dangles.
    pub fn port_mem(&self, p: &PortDecl) -> Option<&'m MemObject> {
        let s = *self.streams.get(p.stream.as_str())?;
        self.stream_mem[s as usize].map(|i| &self.module.mems[i as usize])
    }

    /// Whether a port streams over the off-chip link: its backing memory
    /// object lives off-chip, or the port does not resolve to one.
    pub fn port_offchip(&self, p: &PortDecl) -> bool {
        self.port_mem(p).is_none_or(|mem| mem.space.is_offchip())
    }
}

impl IrModule {
    /// Build the Manage-IR name index (see [`ManageIndex`]).
    pub fn manage_index(&self) -> ManageIndex<'_> {
        ManageIndex::new(self)
    }
}
