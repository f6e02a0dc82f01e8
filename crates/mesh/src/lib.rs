//! `mwllsc-mesh`: thread-per-core shared-nothing shard ownership over
//! SPSC rings.
//!
//! The paper's MwLlSc keeps every process hammering the same
//! `X`/`Bank`/`Help` cache lines, so past a handful of cores the sharded
//! store's ceiling is cross-shard coherence traffic, not the algorithm
//! (conf_icdcs_JayantiP05 counts *shared accesses*; symmetric
//! [`StoreHandle`](mwllsc_store::StoreHandle)s lease slots — and RMW —
//! on every shard they touch). This crate inverts the sharing: each
//! shard is pinned to exactly one worker thread, and remote operations
//! travel as fixed-size messages over bounded single-producer/
//! single-consumer rings instead of contended RMWs.
//!
//! ```text
//!  caller A ──req ring──▶ worker 0 ◀──req ring── caller B
//!     ▲                     │ one StoreHandle,          ▲
//!     └──────reply ring─────┤ shards {0, N, 2N, …}      │
//!                           ▼                           │
//!                       Store shards ──reply ring───────┘
//! ```
//!
//! - [`ring`]: the cache-padded SPSC ring (facade atomics, `RINGH`/
//!   `RINGT` ordering cells, allocation-free hot path).
//! - [`Mesh`]: owns the workers, partitions shards by the store's FNV
//!   router (`shard % workers`), drains inbound rings in waves, and
//!   dispatches through the store's `update_many_with`/`read_many_into`
//!   batch primitives — cross-caller coalescing falls out for free.
//! - [`MeshHandle`]: the caller surface — the same typed-error
//!   get/set/update/read_many shape as `StoreHandle`, with declarative
//!   updates ([`UpdateKind`]) since closures cannot cross rings.
//!
//! Exactness: an op that returns `Ok` was applied exactly once; an op
//! that returns [`MeshError::Disconnected`] was never applied (shutdown
//! drains accepted work before reporting links dead). There is no
//! in-between.
//!
//! ```
//! use mwllsc_store::{Store, StoreConfig};
//! use mwllsc_mesh::{Mesh, MeshConfig, UpdateKind};
//!
//! let store = Store::new(StoreConfig::new(8, 4, 2, 1024));
//! let mesh = Mesh::try_new(store, MeshConfig::default().with_workers(2)).unwrap();
//! let mut h = mesh.attach();
//! h.set(7, &[1, 2]).unwrap();
//! assert_eq!(h.update(7, UpdateKind::Add, &[10, 10]).unwrap(), vec![11, 12]);
//! assert_eq!(h.read_vec(7).unwrap(), vec![11, 12]);
//! mesh.shutdown();
//! assert_eq!(mesh.store().live_slot_leases(), 0);
//! ```

mod handle;
mod link;
mod mesh;
mod msg;
pub mod ring;
mod worker;

pub use handle::MeshHandle;
pub use mesh::{Mesh, MeshConfig, MeshStats, OCC_BUCKETS};
pub use msg::{InlineVal, MeshError, UpdateKind, MAX_INLINE_WIDTH};
