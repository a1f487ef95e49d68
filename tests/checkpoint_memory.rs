//! A checkpoint streams: saving an out-of-core system holds one node group
//! and the file buffer at a time, never a copy of the store it writes out.
//!
//! The only test in its own binary, so the process's peak resident set
//! (`VmHWM`) is this test's alone.

use graph_zeppelin::{GraphZeppelin, GzConfig, StoreBackend};
use gz_testutil::{peak_rss_bytes, TempDir};

#[test]
fn save_checkpoint_grows_the_peak_by_far_less_than_the_store() {
    if peak_rss_bytes().is_none() {
        eprintln!("skipped: this kernel reports no VmHWM in /proc/self/status");
        return;
    }
    let dir = TempDir::new("gz-ckpt-memory");
    let n = 2048u32;
    let mut config = GzConfig::on_disk(n as u64, dir.path().to_path_buf());
    // One node per group, and a cache of a sixteenth of the groups: the
    // store file is 16× the RAM the store may hold.
    config.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 1, cache_groups: 128 };
    let mut gz = GraphZeppelin::new(config).unwrap();
    // Every vertex gets edges, so every group holds state to write out.
    let mut x = 0x9E37_79B9u32;
    for u in 0..n {
        for _ in 0..8 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let v = x % n;
            if v != u {
                gz.edge_update(u, v);
            }
        }
    }
    gz.flush();

    let store_file = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.file_name().unwrap().to_string_lossy().starts_with("gz_sketches_"))
        .expect("the disk store's backing file");
    // The file and the checkpoint's payload hold the same resident words,
    // which a save that gathered its payload first would add to the peak
    // whole.
    let store_bytes = std::fs::metadata(&store_file).unwrap().len();
    assert_eq!(store_bytes, n as u64 * gz.params().node_sketch_resident_bytes() as u64);

    let before = peak_rss_bytes().unwrap();
    gz.save_checkpoint(&dir.join("state.gzc")).unwrap();
    let grew = peak_rss_bytes().unwrap() - before;
    eprintln!("save_checkpoint: VmHWM +{grew} bytes for a {store_bytes}-byte store");
    assert!(
        grew < store_bytes / 4,
        "save_checkpoint raised the peak by {grew} bytes, a {store_bytes}-byte store's worth"
    );
}
