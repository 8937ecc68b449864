//! [`FlatVec`]: flat array storage that is either an owned `Vec<T>` or a
//! zero-copy view into a loaded snapshot region.
//!
//! The frozen [`crate::SocialNetwork`] stores its CSR arrays in `FlatVec`s:
//! graphs built in memory own plain vectors, graphs loaded from a binary
//! snapshot point straight into the `mmap`'d (or buffered) file bytes. Reads
//! go through `Deref<Target = [T]>` either way, so the hot paths are
//! oblivious to the backing. The rare attribute mutations
//! ([`SocialNetwork::set_edge_weights`]) call [`FlatVec::to_mut`], which
//! converts a mapped view into an owned copy on first write
//! (copy-on-write at whole-array granularity).
//!
//! [`SocialNetwork::set_edge_weights`]: crate::SocialNetwork::set_edge_weights

use super::region::MappedRegion;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for element types that may be viewed directly inside a snapshot
/// region: fixed-size, no padding, no invalid bit patterns *as written by the
/// snapshot writer*, alignment ≤ 8.
///
/// # Safety
/// Implementors guarantee `T` has no uninitialised/padding bytes and that any
/// bit pattern the snapshot writer produced is a valid `T`. Pair types
/// additionally require the runtime layout check in the graph loader before a
/// mapped `FlatVec` is constructed.
pub unsafe trait SectionElement: Copy + 'static {}

unsafe impl SectionElement for u8 {}
unsafe impl SectionElement for u32 {}
unsafe impl SectionElement for u64 {}
unsafe impl SectionElement for f64 {}
// Pair sections (CSR slots, edge endpoints): guarded by the
// `pair_layout_is_transparent` runtime check before any mapped construction.
unsafe impl SectionElement for (crate::types::VertexId, crate::types::EdgeId) {}
unsafe impl SectionElement for (crate::types::VertexId, crate::types::VertexId) {}

enum Inner<T> {
    Owned(Vec<T>),
    /// Immutable storage shared between clones: cloning is an `Arc` bump and
    /// `to_mut` detaches (or reclaims a uniquely-held buffer without copying).
    Shared(Arc<Vec<T>>),
    Mapped {
        region: Arc<MappedRegion>,
        byte_offset: usize,
        len: usize,
        _elem: PhantomData<T>,
    },
}

/// A flat array that is owned or a view into a snapshot region (see the
/// module docs).
pub struct FlatVec<T> {
    inner: Inner<T>,
}

impl<T> FlatVec<T> {
    /// Wraps an owned vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        FlatVec {
            inner: Inner::Owned(v),
        }
    }

    /// Wraps an already-shared buffer (clones are `Arc` bumps).
    pub fn from_shared(v: Arc<Vec<T>>) -> Self {
        FlatVec {
            inner: Inner::Shared(v),
        }
    }

    /// Returns `true` if the storage is a zero-copy view into a region.
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// Returns `true` if the storage is `Arc`-shared between clones.
    pub fn is_shared(&self) -> bool {
        matches!(self.inner, Inner::Shared(_))
    }

    /// Converts owned storage into shared storage in place (O(1)): subsequent
    /// clones bump an `Arc` instead of copying the buffer. Mapped views are
    /// left alone — they are already cheap to clone — and shared storage is a
    /// no-op.
    pub fn share(&mut self) {
        if matches!(self.inner, Inner::Owned(_)) {
            let Inner::Owned(v) = std::mem::replace(&mut self.inner, Inner::Owned(Vec::new()))
            else {
                unreachable!("matched Owned above")
            };
            self.inner = Inner::Shared(Arc::new(v));
        }
    }

    /// Returns `true` if the storage views a region that is an `mmap` of the
    /// file (as opposed to a buffered heap read or owned storage).
    pub fn is_file_mapped(&self) -> bool {
        match &self.inner {
            Inner::Owned(_) | Inner::Shared(_) => false,
            Inner::Mapped { region, .. } => region.is_mapped(),
        }
    }
}

impl<T: SectionElement> FlatVec<T> {
    /// Builds a zero-copy view of `len` elements starting `byte_offset` bytes
    /// into `region`.
    ///
    /// # Safety
    /// The caller guarantees the range `byte_offset .. byte_offset +
    /// len * size_of::<T>()` lies inside the region, `byte_offset` is aligned
    /// for `T`, and the bytes are a valid `[T; len]` under `T`'s
    /// [`SectionElement`] contract (for pair types: the layout check passed).
    pub(crate) unsafe fn from_region(
        region: Arc<MappedRegion>,
        byte_offset: usize,
        len: usize,
    ) -> Self {
        debug_assert!(byte_offset + len * std::mem::size_of::<T>() <= region.len());
        debug_assert_eq!(
            (region.as_ptr() as usize + byte_offset) % std::mem::align_of::<T>(),
            0
        );
        FlatVec {
            inner: Inner::Mapped {
                region,
                byte_offset,
                len,
                _elem: PhantomData,
            },
        }
    }
}

impl<T: Clone> FlatVec<T> {
    /// Mutable access to the elements, converting a mapped view into an owned
    /// copy on first use (whole-array copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        match &self.inner {
            Inner::Mapped { .. } => {
                let owned: Vec<T> = self.as_slice().to_vec();
                self.inner = Inner::Owned(owned);
            }
            Inner::Shared(_) => {
                let Inner::Shared(arc) =
                    std::mem::replace(&mut self.inner, Inner::Owned(Vec::new()))
                else {
                    unreachable!("matched Shared above")
                };
                // A uniquely-held buffer is reclaimed without copying.
                let owned = Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone());
                self.inner = Inner::Owned(owned);
            }
            Inner::Owned(_) => {}
        }
        match &mut self.inner {
            Inner::Owned(v) => v,
            _ => unreachable!("converted to owned above"),
        }
    }
}

impl<T> FlatVec<T> {
    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(v) => v.as_slice(),
            Inner::Shared(v) => v.as_slice(),
            Inner::Mapped {
                region,
                byte_offset,
                len,
                ..
            } => {
                if *len == 0 {
                    &[]
                } else {
                    // Safety: upheld by the `from_region` contract; the Arc
                    // keeps the region alive for the borrow's duration.
                    unsafe {
                        std::slice::from_raw_parts(
                            region.as_ptr().add(*byte_offset) as *const T,
                            *len,
                        )
                    }
                }
            }
        }
    }
}

impl<T> Deref for FlatVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for FlatVec<T> {
    fn default() -> Self {
        FlatVec::from_vec(Vec::new())
    }
}

impl<T> From<Vec<T>> for FlatVec<T> {
    fn from(v: Vec<T>) -> Self {
        FlatVec::from_vec(v)
    }
}

impl<T: Clone> Clone for FlatVec<T> {
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Owned(v) => FlatVec::from_vec(v.clone()),
            Inner::Shared(v) => FlatVec {
                inner: Inner::Shared(Arc::clone(v)),
            },
            Inner::Mapped {
                region,
                byte_offset,
                len,
                ..
            } => FlatVec {
                // sharing the region is cheap and keeps the clone zero-copy
                inner: Inner::Mapped {
                    region: Arc::clone(region),
                    byte_offset: *byte_offset,
                    len: *len,
                    _elem: PhantomData,
                },
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for FlatVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for FlatVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Double-buffered publish shadow for one flat array mutated row-by-row.
///
/// A maintainer that mutates a working array in place and periodically
/// publishes immutable snapshots keeps one `SectionShadow` per array. Between
/// publishes it records which rows (fixed `stride` elements each) it dirtied;
/// at publish time the shadow replays only those rows onto one of two
/// alternating `Arc` buffers and hands out an O(1)-clone [`FlatVec`]. Each
/// buffer keeps its own pending list (a row dirtied once must be replayed
/// onto *both* buffers, one publish apart), so steady-state publish cost is
/// proportional to the rows touched since that buffer was last current — not
/// to the array length. A buffer still referenced by an old snapshot is
/// detached by `Arc::make_mut` before replay.
#[derive(Debug)]
pub struct SectionShadow<T: std::fmt::Debug> {
    bufs: [Arc<Vec<T>>; 2],
    /// `true` while the buffer has never been synced (or was invalidated by
    /// [`SectionShadow::mark_all`]): the next publish does a full copy.
    stale: [bool; 2],
    pending: [Vec<u32>; 2],
    next: usize,
    stride: usize,
}

impl<T: Copy + std::fmt::Debug> SectionShadow<T> {
    /// A shadow for an array whose rows are `stride` contiguous elements
    /// (row `i` occupies `i * stride .. (i + 1) * stride`).
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "row stride must be positive");
        SectionShadow {
            bufs: [Arc::new(Vec::new()), Arc::new(Vec::new())],
            stale: [true, true],
            pending: [Vec::new(), Vec::new()],
            next: 0,
            stride,
        }
    }

    /// Records `row` as dirtied in the working array since the last publish.
    #[inline]
    pub fn mark_row(&mut self, row: u32) {
        self.pending[0].push(row);
        self.pending[1].push(row);
    }

    /// Records every row in `rows` as dirtied.
    pub fn mark_rows(&mut self, rows: &[u32]) {
        self.pending[0].extend_from_slice(rows);
        self.pending[1].extend_from_slice(rows);
    }

    /// Invalidates both buffers: the next two publishes copy the whole array.
    /// Use after a change that rewrites rows wholesale (compaction, repack).
    pub fn mark_all(&mut self) {
        self.stale = [true, true];
        self.pending[0].clear();
        self.pending[1].clear();
    }

    /// Syncs both buffers with `working` so even the first two publishes
    /// replay dirty rows instead of full-copying. One O(len) cost at
    /// construction time, off the steady-state publish path.
    pub fn prime(&mut self, working: &[T]) {
        for slot in 0..2 {
            let buf = Arc::make_mut(&mut self.bufs[slot]);
            buf.clear();
            buf.extend_from_slice(working);
            self.stale[slot] = false;
            self.pending[slot].clear();
        }
    }

    /// Syncs the next buffer with `working` (full copy if stale or shrunk,
    /// tail extension plus dirty-row replay otherwise) and returns it as a
    /// shared `FlatVec` whose clones are `Arc` bumps.
    pub fn publish(&mut self, working: &[T]) -> FlatVec<T> {
        let slot = self.next;
        let buf = Arc::make_mut(&mut self.bufs[slot]);
        if self.stale[slot] || buf.len() > working.len() {
            buf.clear();
            buf.extend_from_slice(working);
            self.stale[slot] = false;
        } else {
            if buf.len() < working.len() {
                let from = buf.len();
                buf.extend_from_slice(&working[from..]);
            }
            let stride = self.stride;
            for &row in &self.pending[slot] {
                let start = row as usize * stride;
                // Rows at/after the old buffer length were covered by the
                // tail extension above.
                let end = (start + stride).min(working.len());
                if start < end {
                    buf[start..end].copy_from_slice(&working[start..end]);
                }
            }
        }
        self.pending[slot].clear();
        self.next = slot ^ 1;
        FlatVec::from_shared(Arc::clone(&self.bufs[slot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::Write;

    #[test]
    fn owned_roundtrip() {
        let mut v: FlatVec<u32> = vec![1, 2, 3].into();
        assert_eq!(&v[..], &[1, 2, 3]);
        assert!(!v.is_mapped());
        v.to_mut().push(4);
        assert_eq!(&v[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn mapped_view_reads_region_and_cow_detaches() {
        let path = std::env::temp_dir().join("icde_flatvec_region.bin");
        let payload: Vec<u8> = [7u64, 8, 9].iter().flat_map(|v| v.to_le_bytes()).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();
        let mut f = File::open(&path).unwrap();
        let region = MappedRegion::read_file(&mut f).unwrap();
        let mut v: FlatVec<u64> = unsafe { FlatVec::from_region(region, 0, 3) };
        assert!(v.is_mapped());
        assert_eq!(&v[..], &[7, 8, 9]);
        let snapshot = v.clone();
        v.to_mut()[0] = 42;
        assert!(!v.is_mapped());
        assert_eq!(&v[..], &[42, 8, 9]);
        // the clone still reads the untouched region
        assert!(snapshot.is_mapped());
        assert_eq!(&snapshot[..], &[7, 8, 9]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn shared_clone_is_arc_bump_and_cow_detaches() {
        let mut v: FlatVec<u32> = vec![1, 2, 3].into();
        v.share();
        assert!(v.is_shared());
        let snapshot = v.clone();
        assert!(snapshot.is_shared());
        v.to_mut()[0] = 42;
        assert!(!v.is_shared());
        assert_eq!(&v[..], &[42, 2, 3]);
        assert_eq!(&snapshot[..], &[1, 2, 3]);
        // a uniquely-held shared buffer is reclaimed, not copied
        let mut solo: FlatVec<u32> = vec![9].into();
        solo.share();
        let ptr = solo.as_slice().as_ptr();
        assert_eq!(solo.to_mut().as_ptr(), ptr);
    }

    #[test]
    fn section_shadow_replays_only_dirty_rows() {
        let mut working: Vec<u32> = vec![0, 0, 10, 10, 20, 20];
        let mut shadow = SectionShadow::new(2);
        let first = shadow.publish(&working);
        assert_eq!(&first[..], &working[..]);

        working[2] = 11;
        working[3] = 12;
        shadow.mark_row(1);
        let second = shadow.publish(&working);
        assert_eq!(&second[..], &[0, 0, 11, 12, 20, 20]);
        // the first snapshot is untouched even though it shares buffer slot 0
        assert_eq!(&first[..], &[0, 0, 10, 10, 20, 20]);

        // third publish reuses slot 0: the old snapshot keeps its buffer via
        // make_mut and only the dirty row is replayed on the detached copy
        working[0] = 7;
        shadow.mark_row(0);
        working.extend_from_slice(&[30, 30]);
        let third = shadow.publish(&working);
        assert_eq!(&third[..], &[7, 0, 11, 12, 20, 20, 30, 30]);
        assert_eq!(&first[..], &[0, 0, 10, 10, 20, 20]);
        assert_eq!(&second[..], &[0, 0, 11, 12, 20, 20]);

        // mark_all forces full copies (shrink path)
        working.truncate(4);
        shadow.mark_all();
        let fourth = shadow.publish(&working);
        assert_eq!(&fourth[..], &[7, 0, 11, 12]);
    }
}
