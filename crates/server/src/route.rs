//! Dispatch routes: where a worker's waves commit.
//!
//! A server worker either owns a symmetric
//! [`StoreHandle`](mwllsc_store::StoreHandle) (the classic mode — the
//! handle leases a slot on every shard it touches and RMWs shared cache
//! lines directly) or a [`MeshHandle`] (`Server::start_mesh` — decoded
//! frames are forwarded as fixed-size messages over SPSC rings to the
//! mesh worker that owns each shard, and only the owning thread ever
//! touches a shard's lines). [`Route`] covers both, so the worker loop
//! and the wave dispatcher stay mode-agnostic.

use mwllsc_mesh::{MeshError, MeshHandle};
use mwllsc_store::StoreHandle;

use crate::proto::WireError;

/// One worker's commit path. Dropping it releases whatever the
/// mode holds: the store route's shard-slot leases, or the mesh route's
/// caller links (waking the mesh workers so they retire the rings).
pub(crate) enum Route {
    /// Symmetric: commit through a store handle on this thread.
    Store(StoreHandle),
    /// Shared-nothing: forward to owning mesh workers over rings.
    Mesh(MeshHandle),
}

/// Maps a mesh error onto the wire vocabulary. The validator screens
/// keys and widths before dispatch, so the variants that survive to
/// clients in practice are shutdown races (`Disconnected`) — reported
/// as `Internal`, matching how a mid-request store teardown reads.
pub(crate) fn wire_of_mesh(e: &MeshError) -> WireError {
    match *e {
        MeshError::KeyOutOfRange { key, capacity } => WireError::KeyOutOfRange { key, capacity },
        MeshError::WrongValueLen { expected, got } => {
            WireError::WrongValueLen { expected: expected as u64, got: got as u64 }
        }
        MeshError::ShardExhausted { shard, capacity } => {
            WireError::ShardExhausted { shard: shard as u64, capacity: capacity as u64 }
        }
        _ => WireError::Internal,
    }
}
