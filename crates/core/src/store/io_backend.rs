//! Pluggable positioned-I/O backends for the disk store.
//!
//! [`DiskStore`](super::disk::DiskStore) describes its file traffic as
//! *regions* — `(offset, len)` spans of the round-major sketch file — and a
//! backend decides how the spans become syscalls:
//!
//! - [`PreadBackend`] issues one blocking `pread`/`pwrite` per region (the
//!   portable path, and the only one before this layer existed).
//! - [`UringBackend`] batches a window of regions into a single
//!   `io_uring_enter` and reaps completions out of order (Linux; see
//!   [`super::uring`] for the raw ring plumbing). Callers must therefore
//!   tolerate out-of-order delivery — the query engine does, because its
//!   folding is XOR and order-independent.
//!
//! Both backends support an O_DIRECT mode: reads then go through a pool of
//! reusable page-aligned bounce buffers, with each region widened to the
//! enclosing `DIRECT_ALIGN`-aligned span (O_DIRECT requires offset, length
//! and buffer address all aligned to the logical block size) and the
//! logical bytes sliced back out on delivery.
//!
//! Accounting is *logical*: every region delivered counts as exactly one
//! read/write of its logical byte length in [`IoStats`], whatever the
//! backend — so the experiment suite's exact I/O-count assertions hold
//! verbatim under every backend. Batch shape is tracked separately via
//! [`IoStats::record_batch`] / [`IoStats::completions`].

use super::uring::{uring_available, Ring, IORING_OP_READ, IORING_OP_WRITE};
use gz_gutters::IoStats;
use parking_lot::Mutex;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;

/// Alignment O_DIRECT transfers are rounded to (covers 512 B and 4 KiB
/// logical-block devices, and the page-alignment some filesystems demand).
pub const DIRECT_ALIGN: usize = 4096;

/// The `O_DIRECT` open flag (`0o40000` on every architecture this
/// reproduction targets; pass to `OpenOptions::custom_flags`).
pub const O_DIRECT: i32 = 0o40000;

/// Which I/O backend a disk store should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackendKind {
    /// Probe io_uring at store open; fall back to pread if unavailable.
    #[default]
    Auto,
    /// One positioned syscall per region (portable).
    Pread,
    /// Batched submissions through a raw io_uring; store open fails if the
    /// host cannot set one up (use `Auto` for graceful fallback).
    Uring,
}

impl IoBackendKind {
    /// Parse a CLI spelling (`auto` | `pread` | `uring`).
    pub fn parse(s: &str) -> Option<IoBackendKind> {
        match s {
            "auto" => Some(IoBackendKind::Auto),
            "pread" => Some(IoBackendKind::Pread),
            "uring" => Some(IoBackendKind::Uring),
            _ => None,
        }
    }
}

/// Disk-store I/O tunables (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoBackendConfig {
    /// Backend selection (`--io-backend`).
    pub kind: IoBackendKind,
    /// Operations kept in flight per submission window (uring only; the
    /// pread path is inherently depth-1 per caller).
    pub queue_depth: usize,
    /// Open the read path O_DIRECT, bypassing the page cache so
    /// cache-constrained experiments measure device I/O. Falls back to
    /// buffered reads if the filesystem refuses O_DIRECT.
    pub direct: bool,
}

impl Default for IoBackendConfig {
    fn default() -> Self {
        IoBackendConfig { kind: IoBackendKind::Auto, queue_depth: 16, direct: false }
    }
}

/// One span of the backing file a caller wants read.
#[derive(Debug, Clone, Copy)]
pub struct ReadReq {
    /// Absolute file offset.
    pub offset: u64,
    /// Logical bytes wanted.
    pub len: usize,
}

impl ReadReq {
    /// The enclosing aligned span `(start, len)` for a transfer alignment
    /// of `align` (identity at `align` = 1).
    fn aligned_span(&self, align: usize) -> (u64, usize) {
        let start = self.offset - self.offset % align as u64;
        let end = (self.offset + self.len as u64).div_ceil(align as u64) * align as u64;
        (start, (end - start) as usize)
    }
}

// ---------------------------------------------------------------------------
// Aligned bounce buffers
// ---------------------------------------------------------------------------

/// A heap buffer whose address honors a fixed alignment (O_DIRECT needs
/// aligned user memory; at alignment 1 this is an ordinary allocation that
/// exists to be pooled and reused across reads).
struct AlignedBuf {
    ptr: std::ptr::NonNull<u8>,
    cap: usize,
    align: usize,
}

// SAFETY: the buffer is uniquely owned heap memory; ownership moves between
// the pool and at most one reader at a time.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    fn with_capacity(cap: usize, align: usize) -> AlignedBuf {
        let cap = cap.max(align).max(1);
        let layout = std::alloc::Layout::from_size_align(cap, align.max(1))
            .expect("valid aligned-buffer layout");
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        let ptr =
            std::ptr::NonNull::new(ptr).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        AlignedBuf { ptr, cap, align: align.max(1) }
    }

    fn slice_mut(&mut self, len: usize) -> &mut [u8] {
        assert!(len <= self.cap);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), len) }
    }

    fn slice(&self, start: usize, len: usize) -> &[u8] {
        assert!(start + len <= self.cap);
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(start), len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::from_size_align(self.cap, self.align)
            .expect("layout validated at allocation");
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), layout) };
    }
}

/// Reusable buffer pool shared by a backend's readers (bounded, so a burst
/// of large reads cannot pin memory forever).
struct BufferPool {
    align: usize,
    bufs: Mutex<Vec<AlignedBuf>>,
    max_pooled: usize,
}

impl BufferPool {
    fn new(align: usize, max_pooled: usize) -> BufferPool {
        BufferPool { align, bufs: Mutex::new(Vec::new()), max_pooled }
    }

    fn checkout(&self, cap: usize) -> AlignedBuf {
        let mut bufs = self.bufs.lock();
        match bufs.iter().position(|b| b.cap >= cap) {
            Some(i) => bufs.swap_remove(i),
            None => AlignedBuf::with_capacity(cap, self.align),
        }
    }

    fn put_back(&self, buf: AlignedBuf) {
        let mut bufs = self.bufs.lock();
        if bufs.len() < self.max_pooled {
            bufs.push(buf);
        }
    }
}

// ---------------------------------------------------------------------------
// Pread backend
// ---------------------------------------------------------------------------

/// The portable backend: one blocking positioned syscall per region, in
/// request order. Depth is always 1, so each syscall is its own
/// "submission batch" in the stats.
pub struct PreadBackend {
    align: usize,
    pool: BufferPool,
}

impl PreadBackend {
    fn new(align: usize) -> PreadBackend {
        PreadBackend { align, pool: BufferPool::new(align, 8) }
    }

    /// Read one aligned span into `buf`, tolerating short reads at EOF as
    /// long as they cover `need` bytes from the span start.
    fn read_span(file: &File, start: u64, buf: &mut [u8], need: usize) -> io::Result<()> {
        let mut filled = 0usize;
        while filled < need {
            let n = file.read_at(&mut buf[filled..], start + filled as u64)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "short read inside the sketch file",
                ));
            }
            filled += n;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Uring backend
// ---------------------------------------------------------------------------

/// The Linux backend: regions are enqueued as `IORING_OP_READ`/`WRITE`
/// SQEs, up to `depth` in flight per caller, submitted in batches through
/// one `io_uring_enter` each and reaped out of completion order. Rings are
/// pooled and checked out per call, so concurrent query workers each drive
/// their own ring without locking.
pub struct UringBackend {
    depth: usize,
    align: usize,
    rings: Mutex<Vec<Ring>>,
    pool: BufferPool,
}

impl UringBackend {
    fn new(depth: usize, align: usize) -> io::Result<UringBackend> {
        let depth = depth.max(1);
        // Fail at construction, not first read: `IoBackendKind::Uring` must
        // error loudly at store open on hosts without io_uring, and `Auto`
        // uses this same probe to fall back.
        let ring = Ring::new(depth as u32)?;
        Ok(UringBackend {
            depth,
            align,
            rings: Mutex::new(vec![ring]),
            pool: BufferPool::new(align, 2 * depth.max(8)),
        })
    }

    fn checkout_ring(&self) -> io::Result<Ring> {
        if let Some(ring) = self.rings.lock().pop() {
            return Ok(ring);
        }
        Ring::new(self.depth as u32)
    }

    fn put_back_ring(&self, ring: Ring) {
        let mut rings = self.rings.lock();
        if rings.len() < 16 {
            rings.push(ring);
        }
    }

    /// Drive `reqs` through one ring: keep up to `depth` reads in flight,
    /// deliver each completed region to `done` (out of order), stop
    /// submitting once `done` returns false, and always drain in-flight
    /// operations before returning (the kernel owns the buffers until their
    /// CQEs arrive).
    fn read_regions(
        &self,
        file: &File,
        reqs: &[ReadReq],
        stats: &IoStats,
        done: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> io::Result<()> {
        let fd = file.as_raw_fd();
        let mut ring = self.checkout_ring()?;
        let mut bufs: Vec<Option<AlignedBuf>> = (0..reqs.len()).map(|_| None).collect();
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut cancelled = false;
        let mut result: io::Result<()> = Ok(());

        loop {
            let mut pushed = 0usize;
            if result.is_ok() && !cancelled {
                while next < reqs.len() && in_flight < self.depth {
                    let (start, span_len) = reqs[next].aligned_span(self.align);
                    let mut buf = self.pool.checkout(span_len);
                    let addr = buf.slice_mut(span_len).as_mut_ptr() as u64;
                    if !ring.push_sqe(IORING_OP_READ, fd, start, addr, span_len as u32, next as u64)
                    {
                        self.pool.put_back(buf);
                        break;
                    }
                    bufs[next] = Some(buf);
                    next += 1;
                    in_flight += 1;
                    pushed += 1;
                }
            }
            if in_flight == 0 {
                break;
            }
            if let Err(e) = ring.enter(1) {
                // The kernel may still be filling our buffers; without CQEs
                // to prove otherwise, leak them rather than free memory a
                // DMA target may touch. This path requires io_uring_enter
                // itself to fail after a successful setup — effectively
                // never.
                std::mem::forget(bufs);
                return Err(e);
            }
            if pushed > 0 {
                stats.record_batch(in_flight as u64);
            }
            while let Some((user_data, res)) = ring.pop_cqe() {
                in_flight -= 1;
                stats.completions.add(1);
                let idx = user_data as usize;
                let req = reqs[idx];
                let buf = bufs[idx].take().expect("completion for an in-flight read");
                if result.is_ok() && !cancelled {
                    let (start, _) = req.aligned_span(self.align);
                    if res < 0 {
                        result = Err(io::Error::from_raw_os_error(-res));
                    } else if start + (res as u64) < req.offset + req.len as u64 {
                        result = Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "uring read ended inside the requested region",
                        ));
                    } else {
                        stats.record_read(req.len as u64);
                        let log_off = (req.offset - start) as usize;
                        if !done(idx, buf.slice(log_off, req.len)) {
                            cancelled = true;
                        }
                    }
                }
                self.pool.put_back(buf);
            }
        }
        self.put_back_ring(ring);
        result
    }

    /// Batch-write `regions` (offset, payload) through the ring; short
    /// writes finish synchronously via `write_all_at` on the same fd.
    fn write_regions(
        &self,
        file: &File,
        regions: &[(u64, Vec<u8>)],
        stats: &IoStats,
    ) -> io::Result<()> {
        let fd = file.as_raw_fd();
        let mut ring = self.checkout_ring()?;
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut result: io::Result<()> = Ok(());

        loop {
            let mut pushed = 0usize;
            if result.is_ok() {
                while next < regions.len() && in_flight < self.depth {
                    let (offset, bytes) = &regions[next];
                    if !ring.push_sqe(
                        IORING_OP_WRITE,
                        fd,
                        *offset,
                        bytes.as_ptr() as u64,
                        bytes.len() as u32,
                        next as u64,
                    ) {
                        break;
                    }
                    next += 1;
                    in_flight += 1;
                    pushed += 1;
                }
            }
            if in_flight == 0 {
                break;
            }
            // Write buffers belong to `regions` (caller-owned, alive past
            // this call), so an enter failure cannot use-after-free — just
            // surface it.
            ring.enter(1)?;
            if pushed > 0 {
                stats.record_batch(in_flight as u64);
            }
            while let Some((user_data, res)) = ring.pop_cqe() {
                in_flight -= 1;
                stats.completions.add(1);
                if result.is_err() {
                    continue;
                }
                let (offset, bytes) = &regions[user_data as usize];
                if res < 0 {
                    result = Err(io::Error::from_raw_os_error(-res));
                } else if (res as usize) < bytes.len() {
                    let written = res as usize;
                    result = file.write_all_at(&bytes[written..], offset + written as u64);
                    if result.is_ok() {
                        stats.record_write(bytes.len() as u64);
                    }
                } else {
                    stats.record_write(bytes.len() as u64);
                }
            }
        }
        self.put_back_ring(ring);
        result
    }
}

// ---------------------------------------------------------------------------
// The backend handle
// ---------------------------------------------------------------------------

/// A resolved I/O backend a [`DiskStore`](super::disk::DiskStore) routes
/// all file traffic through.
pub enum IoBackendImpl {
    /// Portable positioned-syscall path.
    Pread(PreadBackend),
    /// Batched io_uring path (Linux).
    Uring(UringBackend),
}

impl IoBackendImpl {
    /// Resolve `kind` into a live backend. `direct` selects the aligned
    /// bounce-buffer read path (the caller opens the O_DIRECT fd).
    /// `Auto` probes io_uring and silently falls back to pread; explicit
    /// `Uring` surfaces the setup error instead.
    pub fn resolve(kind: IoBackendKind, queue_depth: usize, direct: bool) -> io::Result<Self> {
        let align = if direct { DIRECT_ALIGN } else { 1 };
        match kind {
            IoBackendKind::Pread => Ok(IoBackendImpl::Pread(PreadBackend::new(align))),
            IoBackendKind::Uring => {
                Ok(IoBackendImpl::Uring(UringBackend::new(queue_depth, align)?))
            }
            IoBackendKind::Auto => {
                if uring_available() {
                    if let Ok(backend) = UringBackend::new(queue_depth, align) {
                        return Ok(IoBackendImpl::Uring(backend));
                    }
                }
                Ok(IoBackendImpl::Pread(PreadBackend::new(align)))
            }
        }
    }

    /// Resolved backend name (for `--stats` and test logs).
    pub fn name(&self) -> &'static str {
        match self {
            IoBackendImpl::Pread(_) => "pread",
            IoBackendImpl::Uring(_) => "uring",
        }
    }

    /// How many regions a caller should claim per batch to saturate this
    /// backend: the queue depth for uring, 1 for pread (which preserves the
    /// pre-backend one-group-at-a-time claim granularity exactly).
    pub fn read_window(&self) -> usize {
        match self {
            IoBackendImpl::Pread(_) => 1,
            IoBackendImpl::Uring(b) => b.depth,
        }
    }

    /// Read one region into a caller-provided buffer (the whole-group fault
    /// path). Counted as one logical read of `buf.len()` bytes.
    pub fn read_into(
        &self,
        file: &File,
        offset: u64,
        buf: &mut [u8],
        stats: &IoStats,
    ) -> io::Result<()> {
        match self {
            IoBackendImpl::Pread(b) => {
                if b.align == 1 {
                    file.read_exact_at(buf, offset)?;
                } else {
                    let req = ReadReq { offset, len: buf.len() };
                    let (start, span_len) = req.aligned_span(b.align);
                    let mut span = b.pool.checkout(span_len);
                    let need = (offset - start) as usize + buf.len();
                    PreadBackend::read_span(file, start, span.slice_mut(span_len), need)?;
                    buf.copy_from_slice(span.slice((offset - start) as usize, buf.len()));
                    b.pool.put_back(span);
                }
                stats.record_read(buf.len() as u64);
                stats.record_batch(1);
                stats.completions.add(1);
                Ok(())
            }
            IoBackendImpl::Uring(b) => {
                let reqs = [ReadReq { offset, len: buf.len() }];
                let mut delivered = false;
                b.read_regions(file, &reqs, stats, &mut |_, bytes| {
                    buf.copy_from_slice(bytes);
                    delivered = true;
                    true
                })?;
                debug_assert!(delivered);
                Ok(())
            }
        }
    }

    /// Read many regions, delivering each to `done(index, bytes)` —
    /// possibly out of request order (uring). `done` returning false
    /// cancels the remaining regions (in-flight ones still complete and are
    /// discarded).
    pub fn read_regions(
        &self,
        file: &File,
        reqs: &[ReadReq],
        stats: &IoStats,
        done: &mut dyn FnMut(usize, &[u8]) -> bool,
    ) -> io::Result<()> {
        match self {
            IoBackendImpl::Pread(b) => {
                for (i, req) in reqs.iter().enumerate() {
                    let (start, span_len) = req.aligned_span(b.align);
                    let mut span = b.pool.checkout(span_len);
                    let need = (req.offset - start) as usize + req.len;
                    let read = PreadBackend::read_span(file, start, span.slice_mut(span_len), need);
                    stats.record_batch(1);
                    stats.completions.add(1);
                    read?;
                    stats.record_read(req.len as u64);
                    let more = done(i, span.slice((req.offset - start) as usize, req.len));
                    b.pool.put_back(span);
                    if !more {
                        break;
                    }
                }
                Ok(())
            }
            IoBackendImpl::Uring(b) => b.read_regions(file, reqs, stats, done),
        }
    }

    /// Write `regions` (offset, payload). Counted as one logical write per
    /// region. Writes always target a buffered fd (see DESIGN.md §13:
    /// O_DIRECT covers the read path only), so no alignment applies.
    pub fn write_regions(
        &self,
        file: &File,
        regions: &[(u64, Vec<u8>)],
        stats: &IoStats,
    ) -> io::Result<()> {
        match self {
            IoBackendImpl::Pread(_) => {
                for (offset, bytes) in regions {
                    file.write_all_at(bytes, *offset)?;
                    stats.record_write(bytes.len() as u64);
                    stats.record_batch(1);
                    stats.completions.add(1);
                }
                Ok(())
            }
            IoBackendImpl::Uring(b) => b.write_regions(file, regions, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_file(name: &str, len: usize) -> (File, gz_testutil::TempPath, Vec<u8>) {
        let path = gz_testutil::TempPath::new(&format!("gz-io-backend-{name}"), ".bin");
        let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        std::fs::write(path.to_path_buf(), &data).unwrap();
        let file =
            std::fs::OpenOptions::new().read(true).write(true).open(path.to_path_buf()).unwrap();
        (file, path, data)
    }

    fn backends_under_test(depth: usize) -> Vec<IoBackendImpl> {
        let mut backends =
            vec![IoBackendImpl::resolve(IoBackendKind::Pread, depth, false).unwrap()];
        if uring_available() {
            backends.push(IoBackendImpl::resolve(IoBackendKind::Uring, depth, false).unwrap());
        } else {
            eprintln!("skipping uring backend: io_uring unavailable on this host");
        }
        backends
    }

    #[test]
    fn read_regions_delivers_every_region_once() {
        let (file, _t, data) = data_file("regions", 1 << 16);
        for backend in backends_under_test(4) {
            let reqs: Vec<ReadReq> =
                (0..16).map(|i| ReadReq { offset: i as u64 * 4096 + 13, len: 997 }).collect();
            let stats = IoStats::new();
            let mut seen = vec![false; reqs.len()];
            backend
                .read_regions(&file, &reqs, &stats, &mut |i, bytes| {
                    assert!(!seen[i], "region {i} delivered twice ({})", backend.name());
                    seen[i] = true;
                    let off = reqs[i].offset as usize;
                    assert_eq!(bytes, &data[off..off + reqs[i].len], "region {i}");
                    true
                })
                .unwrap();
            assert!(seen.iter().all(|&s| s), "backend {}", backend.name());
            // Logical accounting is backend-independent: one read of 997
            // bytes per region.
            assert_eq!(stats.reads(), 16, "backend {}", backend.name());
            assert_eq!(stats.bytes_read(), 16 * 997, "backend {}", backend.name());
            assert_eq!(stats.completions(), 16, "backend {}", backend.name());
            assert!(stats.submissions() > 0 && stats.max_depth() >= 1);
        }
    }

    #[test]
    fn uring_batches_deeper_than_pread() {
        if !uring_available() {
            eprintln!("skipping: io_uring unavailable on this host");
            return;
        }
        let (file, _t, _) = data_file("depth", 1 << 16);
        let reqs: Vec<ReadReq> =
            (0..32).map(|i| ReadReq { offset: i as u64 * 2048, len: 2048 }).collect();

        let uring = IoBackendImpl::resolve(IoBackendKind::Uring, 8, false).unwrap();
        let stats = IoStats::new();
        uring.read_regions(&file, &reqs, &stats, &mut |_, _| true).unwrap();
        assert_eq!(stats.max_depth(), 8, "first window fills the whole queue");
        assert!(
            stats.submissions() < 32,
            "batching must use fewer enters than regions (got {})",
            stats.submissions()
        );

        let pread = IoBackendImpl::resolve(IoBackendKind::Pread, 8, false).unwrap();
        let pstats = IoStats::new();
        pread.read_regions(&file, &reqs, &pstats, &mut |_, _| true).unwrap();
        assert_eq!(pstats.max_depth(), 1, "pread is depth-1 by construction");
        assert_eq!(pstats.submissions(), 32);
    }

    #[test]
    fn cancel_stops_after_current_window() {
        let (file, _t, _) = data_file("cancel", 1 << 16);
        for backend in backends_under_test(4) {
            let reqs: Vec<ReadReq> =
                (0..16).map(|i| ReadReq { offset: i as u64 * 1024, len: 1024 }).collect();
            let stats = IoStats::new();
            let mut delivered = 0usize;
            backend
                .read_regions(&file, &reqs, &stats, &mut |_, _| {
                    delivered += 1;
                    false
                })
                .unwrap();
            assert_eq!(delivered, 1, "cancel after first delivery ({})", backend.name());
            assert!(
                stats.reads() <= backend.read_window() as u64,
                "at most one window may complete after a cancel ({})",
                backend.name()
            );
        }
    }

    #[test]
    fn write_regions_round_trips_and_counts_per_region() {
        let (file, _t, _) = data_file("write", 1 << 16);
        for (pass, backend) in backends_under_test(4).into_iter().enumerate() {
            let regions: Vec<(u64, Vec<u8>)> =
                (0..9).map(|i| (i as u64 * 3000, vec![(pass * 31 + i) as u8; 3000])).collect();
            let stats = IoStats::new();
            backend.write_regions(&file, &regions, &stats).unwrap();
            assert_eq!(stats.writes(), 9, "backend {}", backend.name());
            assert_eq!(stats.bytes_written(), 9 * 3000, "backend {}", backend.name());
            for (offset, bytes) in &regions {
                let mut got = vec![0u8; bytes.len()];
                file.read_exact_at(&mut got, *offset).unwrap();
                assert_eq!(&got, bytes, "backend {}", backend.name());
            }
        }
    }

    #[test]
    fn read_into_matches_file_contents() {
        let (file, _t, data) = data_file("into", 1 << 14);
        for backend in backends_under_test(2) {
            let stats = IoStats::new();
            let mut buf = vec![0u8; 1000];
            backend.read_into(&file, 513, &mut buf, &stats).unwrap();
            assert_eq!(buf, &data[513..1513], "backend {}", backend.name());
            assert_eq!(stats.reads(), 1);
            assert_eq!(stats.bytes_read(), 1000);
        }
    }

    #[test]
    fn direct_mode_reads_match_buffered() {
        // O_DIRECT needs filesystem support; skip (with the reason logged)
        // where the temp dir refuses it.
        use std::os::unix::fs::OpenOptionsExt;
        let (_file, path, data) = data_file("direct", 1 << 16);
        let direct = match std::fs::OpenOptions::new()
            .read(true)
            .custom_flags(O_DIRECT)
            .open(path.to_path_buf())
        {
            Ok(f) => f,
            Err(e) => {
                eprintln!("skipping: O_DIRECT unsupported on temp filesystem ({e})");
                return;
            }
        };
        let mut kinds = vec![IoBackendKind::Pread];
        if uring_available() {
            kinds.push(IoBackendKind::Uring);
        }
        for kind in kinds {
            let backend = IoBackendImpl::resolve(kind, 4, true).unwrap();
            let stats = IoStats::new();
            // Unaligned logical spans: the bounce pool must widen and
            // re-slice them.
            let reqs: Vec<ReadReq> =
                (0..8).map(|i| ReadReq { offset: i as u64 * 7321 + 11, len: 4097 }).collect();
            let mut seen = 0usize;
            backend
                .read_regions(&direct, &reqs, &stats, &mut |i, bytes| {
                    let off = reqs[i].offset as usize;
                    assert_eq!(bytes, &data[off..off + reqs[i].len], "region {i}");
                    seen += 1;
                    true
                })
                .unwrap();
            assert_eq!(seen, 8, "backend {}", backend.name());
            assert_eq!(stats.bytes_read(), 8 * 4097, "logical accounting under O_DIRECT");
        }
    }
}
